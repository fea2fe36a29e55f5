"""Study scenarios: parameter sweeps, transition detection, reference rows."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FleetContestError, NumericalError, ValidationError
from .game import (
    FEASIBILITY_RTOL,
    SUPPORT_RTOL,
    DualCertificate,
    GameSpec,
    JointStrategy,
    RegionParams,
    SpecStack,
    joint_from_arrays,
    stack_specs,
    stacked_utilities,
    utility,
)
from .interior import BALANCE_RTOL, _InteriorCandidates, _quiet, _solve_prices
from .result import EquilibriumResult, location_tags


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


class _Solution(NamedTuple):
    """A solved stack: per row, the allocations x (N x 2 x m), multipliers
    lambdas (N x 2) and nu (N x 2 x m), location tag and kernel evaluations.
    closed marks the rows the interior closed form answered, whose trace
    and t_lambda read candidates; errors holds a failed row's error, else None.
    """

    x: np.ndarray
    lambdas: np.ndarray
    nu: np.ndarray
    tags: list
    evaluations: list
    candidates: _InteriorCandidates
    closed: list
    errors: list

    def result(self, i: int, spec: GameSpec) -> EquilibriumResult:
        """The EquilibriumResult of solved row i, whose spec is spec."""
        (x_a, x_b), (nu_a, nu_b) = self.x[i], self.nu[i]
        duals = DualCertificate(*self.lambdas[i].tolist(), nu_a, nu_b)
        trace = self.candidates.trace(i) if self.closed[i] else None
        return EquilibriumResult(joint_from_arrays(x_a, x_b), duals, self.tags[i], spec, trace,
                                 iterations=self.evaluations[i])


def _meet_fleets(fleets: np.ndarray, x: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Rows whose N x 2 mask finite holds and whose allocations pass is_feasible's
    fleet-sum test; each row sum adds in is_feasible's order, to the same bits."""
    return (finite & (np.abs(x.sum(axis=2) - fleets) <= FEASIBILITY_RTOL * fleets)).all(axis=1)


def _price_error(fleet_error: float, finite, lambdas, nu, x, fleets) -> FleetContestError:
    """Why a price row the stacked checks rejected fails: the first of its fleet sums
    missing BALANCE_RTOL, a multiplier not finite, an allocation missing FEASIBILITY_RTOL."""
    if not fleet_error <= BALANCE_RTOL:
        return NumericalError(
            f"price solve fleet-sum error {fleet_error!r} exceeds tolerance {BALANCE_RTOL!r}"
        )
    if not finite.all():
        try:
            DualCertificate(*lambdas, *nu)  # Raises with its own message.
        except ValidationError as exc:
            return exc
    for player, total, fleet in zip("ab", x.sum(axis=1).tolist(), fleets.tolist()):
        if not abs(total - fleet) <= FEASIBILITY_RTOL * fleet:
            return NumericalError(
                f"price solve leaves player {player!r} infeasible: fleet-sum error "
                f"{abs(total - fleet) / fleet!r} exceeds tolerance {FEASIBILITY_RTOL!r}"
            )


@_quiet
def _solve_stack(stack: SpecStack) -> _Solution:
    """Solve every spec of stack, accepting each row once, by checks over the stack.

    A row whose root misses BALANCE_RTOL fails with its NumericalError.
    Its interior candidate is accepted when no component is empty (which
    implies is_feasible's sign test), both multipliers are finite and
    both allocations pass is_feasible's fleet-sum test. Every other row
    goes to Newton on the two water levels from the candidate's
    multipliers (_solve_prices, whose allocations are never negative)
    and fails as _price_error says. Each row's outcome is its solo solve's.
    """
    candidates = _InteriorCandidates(stack)
    x, lambdas, fleets = candidates.x, candidates.lambdas, stack.fleets
    errors = list(candidates.errors)
    inside = ~candidates.empty.any(axis=(1, 2))
    closed = inside.tolist()
    if any(closed):
        closed = (inside & _meet_fleets(fleets, x, np.isfinite(lambdas))).tolist()
    tags, nu, evaluations = ["interior"] * len(errors), np.zeros(x.shape), candidates.evaluations[:]
    rows = [i for i, (error, done) in enumerate(zip(errors, closed)) if error is None and not done]
    if not rows:
        return _Solution(x, lambdas, nu, tags, evaluations, candidates, closed, errors)
    priced = stack if len(rows) == len(errors) else stack.take(rows)
    starts = [lambdas[i].tolist() for i in rows]
    p_x, p_lambdas, p_nu, p_evaluations, fleet_errors = _solve_prices(priced, starts)
    if priced is stack:
        x, lambdas, nu = p_x, p_lambdas, p_nu
    else:
        x, lambdas = x.copy(), lambdas.copy()
        x[rows], lambdas[rows], nu[rows] = p_x, p_lambdas, p_nu
    finite = np.isfinite(p_lambdas) & np.isfinite(p_nu).all(axis=2)
    accepted = _meet_fleets(priced.fleets, p_x, finite).tolist()
    for k, (i, tag) in enumerate(zip(rows, location_tags(priced.fleets, p_x))):
        tags[i], evaluations[i] = tag, p_evaluations[k]
        if not (accepted[k] and fleet_errors[k] <= BALANCE_RTOL):
            errors[i] = _price_error(fleet_errors[k], finite[k], p_lambdas[k], p_nu[k], p_x[k],
                                     priced.fleets[k])
    return _Solution(x, lambdas, nu, tags, evaluations, candidates, closed, errors)


def solve_batch(specs) -> list:
    """The unique equilibria of specs that share one region count.

    Entry i is the EquilibriumResult of specs[i], or the FleetContestError
    its solve raised. Each stage runs on all specs at once (_solve_stack),
    and an entry is bit for bit what the spec solved alone gives. An empty
    batch gives []; specs with different region counts raise ShapeError.
    """
    specs = list(specs)
    if not specs:
        return []
    solution = _solve_stack(stack_specs(specs))
    return [solution.result(i, spec) if error is None else error
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
    roots = solution.candidates.roots
    for i, k in enumerate(built):
        error = solution.errors[i]
        if error is not None:
            records[k] = _failed(parameters[k], error)
            continue
        (x_a, x_b), (u_a, u_b) = solution.x[i], payoffs[i]
        records[k] = SweepRecord(parameters[k], joint_from_arrays(x_a, x_b), u_a, u_b,
                                 solution.tags[i], roots[i] if solution.closed[i] else None)
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
