"""Study scenarios: parameter sweeps, transition detection, reference rows."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FleetContestError, GridSizeError, ValidationError
from .game import SUPPORT_RTOL, GameSpec, JointStrategy, RegionParams, joint_from_arrays, utility
from .interior import _solve_prices, interior_equilibrium
from .result import FAMILIES, EquilibriumResult
from .verify import GRID_MAX_CELLS, _result


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


def _record(parameter: float, spec: GameSpec, result: EquilibriumResult) -> SweepRecord:
    return SweepRecord(
        parameter=parameter,
        strategy=result.strategy,
        u_a=utility(spec, "a", result.strategy),
        u_b=utility(spec, "b", result.strategy),
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


def _location(spec: GameSpec, x) -> str:
    """Location tag of a solved 2 x m allocation under the SUPPORT_RTOL rule.

    "interior" when no component is empty; for two regions the first of
    A1, A2, B1, B2 whose pinned player's named region is empty;
    "boundary" otherwise.
    """
    empty = x <= SUPPORT_RTOL * np.array([[spec.fleet_a], [spec.fleet_b]])
    if not empty.any():
        return "interior"
    if spec.m == 2:
        return FAMILIES[int(np.argmax(empty.ravel()))]
    return "boundary"


def solve_spec(spec: GameSpec) -> EquilibriumResult:
    """The unique equilibrium of any spec, for any number of regions.

    The interior closed form comes first. When its candidate leaves the
    interior, or misses a fleet sum, Newton on the two water levels
    (interior._solve_prices) finds the equilibrium from the candidate's
    multipliers; the location tag then follows from the support.
    """
    outcome = interior_equilibrium(spec)
    if outcome.is_interior:
        try:
            return _result(spec, outcome.strategy, "interior", outcome.duals, outcome.trace)
        except ValidationError:
            pass  # A lost fleet sum; the price solve works in shifted prices.
    x, duals, evaluations = _solve_prices(spec, outcome.trace.lambda_a, outcome.trace.lambda_b)
    return _result(
        spec, joint_from_arrays(x[0], x[1]), _location(spec, x), duals, iterations=evaluations
    )


def alpha_sweep(kind: str, alphas) -> list[SweepRecord]:
    """Solve the scenario of the given kind over a sequence of alphas.

    kind is "four" or "two". Solver failures never abort the sweep; the
    affected record carries the error message instead.
    """
    if kind == "four":
        build = four_region_spec
    elif kind == "two":
        build = two_region_spec
    else:
        raise ValidationError(f"kind must be 'four' or 'two', got {kind!r}")
    records = []
    for alpha in alphas:
        alpha = float(alpha)
        try:
            spec = build(alpha)
            records.append(_record(alpha, spec, solve_spec(spec)))
        except FleetContestError as exc:
            records.append(_failed(alpha, exc))
    return records


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, with hi appended when a step misses it.

    Raises ValidationError for a step that is not finite and positive,
    and GridSizeError for more than GRID_MAX_CELLS steps.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError(f"step must be finite and > 0, got {step!r}")
    steps = (hi - lo) / step + 1e-12
    if steps > GRID_MAX_CELLS:
        raise GridSizeError(f"a scan of {steps:.6g} steps exceeds the cap {GRID_MAX_CELLS}")
    n = int(math.floor(steps))
    points = [lo + k * step for k in range(n + 1)]
    if points[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        points.append(hi)
    return points


def _concentrated_in_region1(alpha: float) -> bool:
    """True when the solved equilibrium puts both entire fleets in region 1."""
    spec = two_region_spec(alpha)
    result = solve_spec(spec)
    x_a2 = result.strategy.alloc_a.values[1]
    x_b2 = result.strategy.alloc_b.values[1]
    return x_a2 <= SUPPORT_RTOL * spec.fleet_a and x_b2 <= SUPPORT_RTOL * spec.fleet_b


def detect_alpha_crit(lo: float = 1.0, hi: float = 50.0, step: float = 0.1) -> float | None:
    """Charging-price scale where the equilibrium collapses into region 1.

    Beyond the returned value both companies send their whole fleets to
    the cheap region. Scans [lo, hi] at the given step for the first
    fully concentrated equilibrium, then bisects between the last split
    and first concentrated point down to step/100. Returns None when no
    swept point is concentrated.
    """
    lo, hi, step = float(lo), float(hi), float(step)
    if not 1.0 <= lo < hi <= 50.0:
        raise ValidationError(f"need 1 <= lo < hi <= 50, got lo={lo!r}, hi={hi!r}")
    points = _grid(lo, hi, step)
    first_concentrated = None
    for index, alpha in enumerate(points):
        if _concentrated_in_region1(alpha):
            first_concentrated = index
            break
    if first_concentrated is None:
        return None
    if first_concentrated == 0:
        return points[0]
    split, concentrated = points[first_concentrated - 1], points[first_concentrated]
    while concentrated - split > step / 100.0:
        mid = 0.5 * (split + concentrated)
        if _concentrated_in_region1(mid):
            concentrated = mid
        else:
            split = mid
    return 0.5 * (split + concentrated)


_FLEET_RANGE = (200.0, 4000.0)


def _fleet_spec(fleet_b: float) -> GameSpec:
    base = two_region_spec(3.0)
    return GameSpec(regions=base.regions, fleet_a=1000.0, fleet_b=fleet_b)


def fleet_sweep(fleet_b_values) -> list[SweepRecord]:
    """Solve the fixed two-region scenario over a sequence of b-fleet sizes."""
    values = [float(v) for v in fleet_b_values]
    for value in values:
        if not _FLEET_RANGE[0] <= value <= _FLEET_RANGE[1]:
            raise ValidationError(
                f"fleet_b values must be within {_FLEET_RANGE}, got {value!r}"
            )
    records = []
    for value in values:
        try:
            spec = _fleet_spec(value)
            records.append(_record(value, spec, solve_spec(spec)))
        except FleetContestError as exc:
            records.append(_failed(value, exc))
    return records


def detect_optimal_fleet(lo: float = 200.0, hi: float = 4000.0, step: float = 1.0) -> float:
    """Fleet size for b maximizing b's equilibrium payoff against a fixed rival.

    Scans [lo, hi] at the given step, then refines around the best grid
    point by golden-section search.
    """
    lo, hi, step = float(lo), float(hi), float(step)
    if not _FLEET_RANGE[0] <= lo < hi <= _FLEET_RANGE[1]:
        raise ValidationError(f"need {_FLEET_RANGE[0]} <= lo < hi <= {_FLEET_RANGE[1]}")

    def payoff(fleet_b: float) -> float:
        spec = _fleet_spec(fleet_b)
        return utility(spec, "b", solve_spec(spec).strategy)

    points = _grid(lo, hi, step)
    records = fleet_sweep(points)
    scores = [r.u_b if r.u_b is not None else -math.inf for r in records]
    best = max(range(len(points)), key=scores.__getitem__)
    left = points[max(best - 1, 0)]
    right = points[min(best + 1, len(points) - 1)]
    if left == right:
        return left

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = payoff(x1), payoff(x2)
    while right - left > 1e-3:
        if f1 < f2:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = payoff(x2)
        else:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = payoff(x1)
    return 0.5 * (left + right)


def reference_rows() -> list[SweepRecord]:
    """The four reference scenario rows at alpha 1, 5, 25, and 41."""
    return alpha_sweep("two", [1.0, 5.0, 25.0, 41.0])
