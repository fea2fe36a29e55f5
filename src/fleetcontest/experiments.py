"""Study scenarios: parameter sweeps, transition detection, reference rows."""

import math
from dataclasses import dataclass

from .errors import FleetContestError, ShapeError, ValidationError
from .game import (
    DualCertificate,
    GameSpec,
    JointStrategy,
    RegionParams,
    _quiet,
    empty_components,
    joint_from_arrays,
    stack_specs,
    stacked_utilities,
    utility,
)
from .interior import _solve_stack
from .result import EquilibriumResult


def four_region_spec(alpha: float) -> GameSpec:
    """Four-region scenario with charging prices scaled by alpha in [1, 20].

    Regions 2 and 3 carry the scaled prices; regions 1 and 4 stay fixed.
    """
    alpha = float(alpha)
    if not 1.0 <= alpha <= 20.0:
        raise ValidationError(f"alpha must be in [1, 20], got {alpha!r}")
    return GameSpec(
        regions=(
            RegionParams(beta_m=35_000.0, beta_c=5.0, epsilon=50.0),
            RegionParams(beta_m=50_000.0, beta_c=3.0 * alpha, epsilon=100.0),
            RegionParams(beta_m=100_000.0, beta_c=5.0 * alpha, epsilon=120.0),
            RegionParams(beta_m=180_000.0, beta_c=50.0, epsilon=200.0),
        ),
        fleet_a=1000.0,
        fleet_b=2000.0,
    )


def two_region_spec(alpha: float) -> GameSpec:
    """Two-region scenario with region 2's charging price scaled by alpha in [1, 50]."""
    alpha = float(alpha)
    if not 1.0 <= alpha <= 50.0:
        raise ValidationError(f"alpha must be in [1, 50], got {alpha!r}")
    return GameSpec(
        regions=(
            RegionParams(beta_m=35_000.0, beta_c=10.0, epsilon=100.0),
            RegionParams(beta_m=120_000.0, beta_c=10.0 * alpha, epsilon=300.0),
        ),
        fleet_a=1000.0,
        fleet_b=2000.0,
    )


@dataclass(frozen=True)
class SweepRecord:
    """One point of a sweep, read straight off the solved stack.

    t_lambda is the interior multiplier sum, None where the price solve
    answered. error is None unless the point could not be built or
    solved; then the numeric fields are None and error holds the message.
    """

    parameter: float
    strategy: JointStrategy | None
    u_a: float | None
    u_b: float | None
    location: str | None
    t_lambda: float | None
    error: str | None = None


def _failed(parameter: float, exc: FleetContestError) -> SweepRecord:
    return SweepRecord(parameter, None, None, None, None, None, error=str(exc))


def _result(solution, i: int, spec: GameSpec) -> EquilibriumResult:
    """The EquilibriumResult of row i of a solved stack, whose spec is spec."""
    (x_a, x_b), (nu_a, nu_b) = solution.x[i], solution.nu[i]
    duals = DualCertificate(*solution.lambdas[i].tolist(), nu_a, nu_b)
    trace = solution.trace(i) if solution.closed[i] else None
    return EquilibriumResult(joint_from_arrays(x_a, x_b), duals, solution.tags[i], spec, trace,
                             iterations=solution.evaluations[i])


def solve_batch(specs) -> list:
    """The unique equilibria of specs that share one region count.

    Entry i is the EquilibriumResult of specs[i], or the FleetContestError
    its solve raised. Each stage runs on all specs at once, and each row is
    accepted or failed once, in interior._solve_stack; an entry is bit for
    bit what the spec solved alone gives. An empty batch gives []; specs
    with different region counts raise ShapeError.
    """
    specs = list(specs)
    if not specs:
        return []
    solution = _solve_stack(stack_specs(specs))
    return [_result(solution, i, spec) if error is None else error
            for i, (spec, error) in enumerate(zip(specs, solution.errors))]


def solve_spec(spec: GameSpec) -> EquilibriumResult:
    """The unique equilibrium of any spec, for any number of regions.

    The batch of one: the interior closed form comes first. When its
    candidate leaves the interior, or misses a fleet sum, Newton on the
    two water levels (interior._solve_prices) finds the equilibrium from
    the candidate's multipliers; the location tag then follows from the
    support.
    """
    (result,) = solve_batch([spec])
    if isinstance(result, FleetContestError):
        raise result
    return result


def solve_two_region(spec: GameSpec) -> EquilibriumResult:
    """The unique equilibrium of a two-region game, by solve_spec.

    Raises ShapeError for any other region count. The boundary families
    of the boundary module are the oracle this solve is checked against,
    not part of it.
    """
    if spec.m != 2:
        raise ShapeError(f"solve_two_region needs exactly two regions, spec has {spec.m}")
    return solve_spec(spec)


@_quiet
def _sweep(build, parameters) -> list[SweepRecord]:
    """The records of the specs build makes from parameters, in their order.

    The specs are solved as one stack, and each record reads its row and
    one stacked payoff evaluation. A spec that cannot be built or solved
    gives a record with its error message.
    """
    parameters = [float(p) for p in parameters]
    records = [None] * len(parameters)
    specs, built = [], []
    for k, parameter in enumerate(parameters):
        try:
            specs.append(build(parameter))
            built.append(k)
        except FleetContestError as exc:
            records[k] = _failed(parameter, exc)
    if not specs:
        return records
    stack = stack_specs(specs)
    solution = _solve_stack(stack)
    payoffs = stacked_utilities(stack, solution.x).tolist()
    for i, (k, error) in enumerate(zip(built, solution.errors)):
        if error is not None:
            records[k] = _failed(parameters[k], error)
            continue
        (x_a, x_b), (u_a, u_b) = solution.x[i], payoffs[i]
        t_lambda = solution.roots[i] if solution.closed[i] else None
        records[k] = SweepRecord(parameters[k], joint_from_arrays(x_a, x_b), u_a, u_b,
                                 solution.tags[i], t_lambda)
    return records


def alpha_sweep(kind: str, alphas) -> list[SweepRecord]:
    """Solve the scenario of the given kind over a sequence of alphas.

    kind is "four" or "two". The points are solved as one batch. Failures
    never abort the sweep: an alpha outside the scenario's range, or a
    solve that fails, gives a record that carries the error message.
    """
    if kind == "four":
        build = four_region_spec
    elif kind == "two":
        build = two_region_spec
    else:
        raise ValidationError(f"kind must be 'four' or 'two', got {kind!r}")
    return _sweep(build, alphas)


def _check_step(step: float) -> None:
    """Raises ValidationError for a step that is not finite and positive."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError(f"step must be finite and > 0, got {step!r}")


def detect_alpha_crit(lo: float = 1.0, hi: float = 50.0, step: float = 0.1) -> float | None:
    """Charging-price scale where the equilibrium collapses into region 1.

    Beyond the returned value both companies send their whole fleets to
    the cheap region. One solve at hi decides: if a fleet still uses
    region 2 there, nothing in [lo, hi] collapses and the result is None.
    Otherwise the collapsed allocation and both fleet-sum multipliers
    stay fixed as alpha falls, while each player's region-2 multiplier
    beta_c2(alpha) - lambda - beta_m2 / eps2 falls in proportion to
    beta_c2, which is linear in alpha; the collapse ends where the
    smaller one reaches zero, clipped to lo. step is checked to be
    finite and positive but sets no scan; it is kept for callers.
    """
    lo, hi, step = float(lo), float(hi), float(step)
    if not 1.0 <= lo < hi <= 50.0:
        raise ValidationError(f"need 1 <= lo < hi <= 50, got lo={lo!r}, hi={hi!r}")
    _check_step(step)
    spec = two_region_spec(hi)
    result = solve_spec(spec)
    x = [result.strategy.of(player).values for player in ("a", "b")]
    if not empty_components((spec.fleet_a, spec.fleet_b), x)[:, 1].all():
        return None
    slope = float(spec.beta_c[1]) / hi
    margin = min(float(result.duals.nu_a[1]), float(result.duals.nu_b[1]))
    return max(lo, hi - margin / slope)


_FLEET_RANGE = (200.0, 4000.0)


def _fleet_spec(fleet_b: float) -> GameSpec:
    base = two_region_spec(3.0)
    return GameSpec(regions=base.regions, fleet_a=1000.0, fleet_b=fleet_b)


def fleet_sweep(fleet_b_values) -> list[SweepRecord]:
    """Solve the fixed two-region scenario over a sequence of b-fleet sizes.

    The points are solved as one batch, and a failed solve gives a record
    that carries the error message. Unlike alpha_sweep's per-point
    errors, a value outside [200, 4000], or NaN, raises ValidationError
    before any point is solved.
    """
    values = [float(v) for v in fleet_b_values]
    for value in values:
        if not _FLEET_RANGE[0] <= value <= _FLEET_RANGE[1]:
            raise ValidationError(
                f"fleet_b values must be within {_FLEET_RANGE}, got {value!r}"
            )
    return _sweep(_fleet_spec, values)


def detect_optimal_fleet(lo: float = 200.0, hi: float = 4000.0, step: float = 1.0) -> float:
    """Fleet size for b maximizing b's equilibrium payoff against a fixed rival.

    b's payoff is unimodal in its fleet over the whole admissible range,
    so a golden-section search over [lo, hi] narrows the window to 1e-3
    and returns its midpoint. step is checked to be finite and positive
    but sets no scan; it is kept for callers.
    """
    lo, hi, step = float(lo), float(hi), float(step)
    if not _FLEET_RANGE[0] <= lo < hi <= _FLEET_RANGE[1]:
        raise ValidationError(f"need {_FLEET_RANGE[0]} <= lo < hi <= {_FLEET_RANGE[1]}")
    _check_step(step)

    def payoff(fleet_b: float) -> float:
        spec = _fleet_spec(fleet_b)
        return utility(spec, "b", solve_spec(spec).strategy)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = payoff(x1), payoff(x2)
    while hi - lo > 1e-3:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = payoff(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = payoff(x1)
    return 0.5 * (lo + hi)


def reference_rows() -> list[SweepRecord]:
    """The four reference scenario rows at alpha 1, 5, 25, and 41."""
    return alpha_sweep("two", [1.0, 5.0, 25.0, 41.0])
