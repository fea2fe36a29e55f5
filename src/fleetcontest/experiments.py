"""Study scenarios: parameter sweeps, transition detection, reference rows."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FleetContestError, NumericalError, ValidationError
from .game import (
    SUPPORT_RTOL,
    GameSpec,
    JointStrategy,
    RegionParams,
    SpecStack,
    joint_from_arrays,
    stack_specs,
    stacked_utilities,
    utility,
)
from .interior import _check_root, _InteriorCandidates, _solve_prices
from .result import EquilibriumResult, location_tag
from .verify import _result


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
    """One solved point of a sweep.

    t_lambda is the interior multiplier sum, None at boundary points.
    error is None unless the solver failed, in which case the numeric
    fields are None and error holds the message.
    """

    parameter: float
    strategy: JointStrategy | None
    u_a: float | None
    u_b: float | None
    location: str | None
    t_lambda: float | None
    error: str | None = None


def _record(parameter: float, result: EquilibriumResult, u_a: float, u_b: float) -> SweepRecord:
    return SweepRecord(
        parameter=parameter,
        strategy=result.strategy,
        u_a=u_a,
        u_b=u_b,
        location=result.location,
        t_lambda=result.trace.multiplier_sum if result.trace is not None else None,
        error=None,
    )


def _failed(parameter: float, exc: FleetContestError) -> SweepRecord:
    return SweepRecord(
        parameter=parameter,
        strategy=None,
        u_a=None,
        u_b=None,
        location=None,
        t_lambda=None,
        error=str(exc),
    )


def _solve_stack(specs: list, stack: SpecStack) -> list:
    """solve_batch for specs already stacked as stack."""
    candidates = _InteriorCandidates(stack)
    inside = (~candidates.empty.any(axis=(1, 2))).tolist()
    results = [None] * len(specs)
    price_rows = []
    for i, spec in enumerate(specs):
        try:
            _check_root(candidates.residuals[i], candidates.masses[i])
            if inside[i]:
                strategy = joint_from_arrays(*candidates.x[i])
                results[i] = _result(spec, strategy, "interior", *candidates.certificate(i))
                continue
        except NumericalError as exc:
            results[i] = exc
            continue
        except ValidationError:
            pass  # Not finite, or a fleet sum lost to rounding; the price solve retries.
        price_rows.append(i)
    if price_rows:
        starts = [candidates.lambdas[i] for i in price_rows]
        if len(price_rows) < len(specs):
            stack = stack.take(price_rows)
        for i, entry in zip(price_rows, _solve_prices(stack, starts)):
            if isinstance(entry, FleetContestError):
                results[i] = entry
                continue
            x, duals, evaluations = entry
            spec = specs[i]
            try:
                results[i] = _result(spec, joint_from_arrays(x[0], x[1]), location_tag(spec, x),
                                     duals, iterations=evaluations)
            except FleetContestError as exc:
                results[i] = exc
    return results


def solve_batch(specs) -> list:
    """The unique equilibria of specs that share one region count.

    Entry i is the EquilibriumResult of specs[i], or the FleetContestError
    its solve raised: one spec's failure leaves the others' solves alone.
    Every spec takes solve_spec's path, the interior closed form first
    and Newton on the two water levels where its candidate leaves the
    interior or misses a fleet sum, but each stage runs on all specs at
    once, and an entry is bit for bit what the spec solved alone gives.
    An empty batch gives []; specs with different region counts raise
    ShapeError.
    """
    specs = list(specs)
    if not specs:
        return []
    return _solve_stack(specs, stack_specs(specs))


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


def _sweep(build, parameters) -> list[SweepRecord]:
    """The records of the specs build makes from parameters, in their order.

    The specs are solved as one batch, and both payoffs come from one
    stacked evaluation after one stacked feasibility check. A spec that
    cannot be built or solved gives a record with its error message.
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
    results = _solve_stack(specs, stack)
    solved = [i for i, result in enumerate(results) if isinstance(result, EquilibriumResult)]
    payoffs = {}
    if solved:
        x = np.array([(results[i].strategy.alloc_a.values, results[i].strategy.alloc_b.values)
                      for i in solved])
        values, infeasible = stacked_utilities(stack.take(solved), x)
        payoffs = dict(zip(solved, zip(values.tolist(), infeasible.tolist())))
    for i, (k, result) in enumerate(zip(built, results)):
        if i in payoffs:
            (u_a, u_b), (bad_a, bad_b) = payoffs[i]
            if bad_a or bad_b:
                owner = "a" if bad_a else "b"
                result = ValidationError(f"allocation of player {owner!r} is infeasible")
        if isinstance(result, FleetContestError):
            records[k] = _failed(parameters[k], result)
            continue
        records[k] = _record(parameters[k], result, u_a, u_b)
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
    x_a2 = result.strategy.alloc_a.values[1]
    x_b2 = result.strategy.alloc_b.values[1]
    if x_a2 > SUPPORT_RTOL * spec.fleet_a or x_b2 > SUPPORT_RTOL * spec.fleet_b:
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
