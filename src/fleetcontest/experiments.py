"""Study scenarios: parameter sweeps, transition detection, reference rows."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .errors import FleetContestError, ShapeError, ValidationError
from .game import (
    GameSpec,
    JointStrategy,
    RegionParams,
    SpecStack,
    _quiet,
    stack_specs,
    stacked_utilities,
)
from .interior import _solve_stack
from .result import EquilibriumResult


@dataclass(frozen=True)
class _Path:
    """A scenario as an affine path: the spec at theta in [lo, hi] has the
    parameters base + theta * slope.

    base and slope are rows of (beta_m, beta_c, epsilon) for each region,
    then (fleet_a, fleet_b). message is the range error, naming the
    parameter and formatted with theta.
    """

    message: str
    lo: float
    hi: float
    base: tuple[float, ...]
    slope: tuple[float, ...]

    def check(self, theta) -> float:
        """theta as a float; ValidationError with the message unless lo <= theta <= hi."""
        theta = float(theta)
        if not self.lo <= theta <= self.hi:
            raise ValidationError(self.message.format(theta))
        return theta

    def window(self, lo, hi, step) -> tuple[float, float]:
        """A detector's window (lo, hi) as floats; ValidationError unless
        self.lo <= lo < hi <= self.hi and step is finite and positive."""
        lo, hi, step = float(lo), float(hi), float(step)
        if not self.lo <= lo < hi <= self.hi:
            raise ValidationError(
                f"need {self.lo:g} <= lo < hi <= {self.hi:g}, got lo={lo!r}, hi={hi!r}")
        if not (math.isfinite(step) and step > 0.0):
            raise ValidationError(f"step must be finite and > 0, got {step!r}")
        return lo, hi

    def spec(self, theta) -> GameSpec:
        """The spec at theta: the one row of its stack."""
        stack = self.stack([self.check(theta)])
        beta_m, beta_c, eps, fleets = (field[0].tolist() for field in stack)
        return GameSpec(tuple(map(RegionParams, beta_m, beta_c, eps)), *fleets)

    def stack(self, thetas: list[float]) -> SpecStack:
        """The specs at thetas, all inside [lo, hi], formed as one array
        operation; bit for bit stack_specs of their specs."""
        rows = np.add(self.base, np.multiply.outer(thetas, self.slope))
        beta_m, beta_c, eps = rows[:, :-2].reshape(len(thetas), -1, 3).transpose(2, 0, 1).copy()
        return SpecStack(beta_m, beta_c, eps, rows[:, -2:].copy())


# Four regions; the charging prices of regions 2 and 3 are 3 alpha and 5 alpha.
_FOUR = _Path("alpha must be in [1, 20], got {!r}", 1.0, 20.0,
              (35_000.0, 5.0, 50.0, 50_000.0, 0.0, 100.0, 100_000.0, 0.0, 120.0,
               180_000.0, 50.0, 200.0, 1000.0, 2000.0),
              (0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

# Two regions; region 2's charging price is 10 alpha.
_TWO = _Path("alpha must be in [1, 50], got {!r}", 1.0, 50.0,
             (35_000.0, 10.0, 100.0, 120_000.0, 0.0, 300.0, 1000.0, 2000.0),
             (0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0))

# The two-region scenario at alpha = 3, with b's fleet as the parameter.
_FLEET = _Path("fleet_b must be in [200, 4000], got {!r}", 200.0, 4000.0,
               (35_000.0, 10.0, 100.0, 120_000.0, 30.0, 300.0, 1000.0, 0.0),
               (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0))


_ALPHA_PATHS = {"four": _FOUR, "two": _TWO}


def four_region_spec(alpha: float) -> GameSpec:
    """Four-region scenario with charging prices scaled by alpha in [1, 20].

    Regions 2 and 3 carry the scaled prices; regions 1 and 4 stay fixed.
    """
    return _FOUR.spec(alpha)


def two_region_spec(alpha: float) -> GameSpec:
    """Two-region scenario with region 2's charging price scaled by alpha in [1, 50]."""
    return _TWO.spec(alpha)


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


def _failed(parameter: float, message: str) -> SweepRecord:
    return SweepRecord(parameter, None, None, None, None, None, error=message)


def solve_batch(specs) -> list:
    """The unique equilibria of specs that share one region count.

    Entry i is the EquilibriumResult of specs[i], or the FleetContestError
    its solve raised. Each stage runs on all specs at once, and each row is
    accepted or failed once, in interior._solve_stack, whose solution reads
    each entry off its row; an entry is bit for bit what the spec solved
    alone gives. An empty batch gives []; specs with different region
    counts raise ShapeError.
    """
    specs = list(specs)
    if not specs:
        return []
    solution = _solve_stack(stack_specs(specs))
    return [solution.result(i, spec) for i, spec in enumerate(specs)]


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
def _sweep_stack(parameters, stack: SpecStack) -> list[SweepRecord]:
    """The records of the specs stacked in stack, one per parameter, in order.

    The stack is solved at once, the strategies of its accepted rows are
    built in one step, and each record reads its row and one stacked payoff
    evaluation. A row that fails gives a record with its error message.
    """
    solution = _solve_stack(stack)
    payoffs = stacked_utilities(stack, solution.x).tolist()
    strategies = iter(solution.strategies(
        [i for i, error in enumerate(solution.errors) if error is None]))
    records = []
    for i, (parameter, error) in enumerate(zip(parameters, solution.errors)):
        if error is not None:
            records.append(_failed(parameter, str(error)))
            continue
        t_lambda = solution.roots[i] if solution.closed[i] else None
        records.append(SweepRecord(parameter, next(strategies), *payoffs[i], solution.tags[i],
                                   t_lambda))
    return records


def _path_sweep(path: _Path, parameters) -> list[SweepRecord]:
    """The records of path's specs at parameters, in their order.

    The points inside the path's range are solved as one stack; each
    point outside it, or NaN, gives a record with its range error.
    """
    parameters = [float(p) for p in parameters]
    inside = [path.lo <= p <= path.hi for p in parameters]
    thetas = list(compress(parameters, inside))
    solved = iter(_sweep_stack(thetas, path.stack(thetas)) if thetas else ())
    return [next(solved) if ok else _failed(p, path.message.format(p))
            for p, ok in zip(parameters, inside)]


def alpha_sweep(kind: str, alphas) -> list[SweepRecord]:
    """Solve the scenario of the given kind over a sequence of alphas.

    kind is "four" or "two". The points are solved as one batch. Failures
    never abort the sweep: an alpha outside the scenario's range, or a
    solve that fails, gives a record that carries the error message.
    """
    try:
        path = _ALPHA_PATHS[kind]
    except (KeyError, TypeError):
        raise ValidationError(f"kind must be 'four' or 'two', got {kind!r}") from None
    return _path_sweep(path, alphas)


def detect_alpha_crit(lo: float = 1.0, hi: float = 50.0, step: float = 0.1) -> float | None:
    """Charging-price scale where the equilibrium collapses into region 1.

    Beyond the returned value both companies send their whole fleets to
    the cheap region. There T1 = X_a + X_b + eps1, player p's fleet-sum
    multiplier is beta_c1 - beta_m1 (X_rival + eps1) / T1**2, and its
    region-2 multiplier beta_c2 - beta_m2 / eps2 less that is linear in
    alpha, since only the charging costs move along the path. The
    collapse holds from the larger of the two zeros on, the unique
    equilibrium there being this KKT point; that scale is found in exact
    arithmetic from the path's rows and rounded once. The result is None
    when hi lies below it, else the scale clipped to lo. No spec is
    solved. step is checked to be finite and positive but sets no scan;
    it is kept for callers.
    """
    lo, hi = _TWO.window(lo, hi, step)
    bm1, bc1, eps1, bm2, bc2, eps2, fleet_a, fleet_b = map(Fraction, _TWO.base)
    rise = Fraction(_TWO.slope[4]) - Fraction(_TWO.slope[1])
    mass = fleet_a + fleet_b + eps1
    crit = float(max((bm2 / eps2 - bm1 * (rival + eps1) / mass**2 - (bc2 - bc1)) / rise
                     for rival in (fleet_b, fleet_a)))
    return None if hi < crit else max(lo, crit)


def fleet_sweep(fleet_b_values) -> list[SweepRecord]:
    """Solve the fixed two-region scenario over a sequence of b-fleet sizes.

    The points are solved as one batch, and a failed solve gives a record
    that carries the error message. Unlike alpha_sweep's per-point
    errors, a value outside [200, 4000], or NaN, raises ValidationError
    before any point is solved.
    """
    return _path_sweep(_FLEET, [_FLEET.check(v) for v in fleet_b_values])


def detect_optimal_fleet(lo: float = 200.0, hi: float = 4000.0, step: float = 1.0) -> float:
    """Fleet size for b maximizing b's equilibrium payoff against a fixed rival.

    b's payoff is unimodal in its fleet over the whole admissible range,
    so the sign of its slope at a point tells which side of it the
    optimum lies on. Each step solves the fleets x - h, x and x + h as
    one three-row stack, with h = 1e-4 x shrunk to a quarter of the
    bracket and x kept h inside [lo, hi], and reads the slope and
    curvature at x by central differences. The slope's sign narrows the
    bracket. The Newton step on the slope is taken when the curvature is
    negative and the step lands inside the bracket. A step past the
    window's end, while the bracket still reaches that end, moves the
    next point to that end (and so h inside it); otherwise the bracket
    is bisected. The search returns x where the slope reads zero, the
    next point once a step falls below 1e-7 x, and the bracket's
    midpoint once the bracket is narrower than 1e-3. When the optimum
    lies outside the window, the slope keeps one sign across it, the
    probes close in on the window's end on that side, and the result is
    within 1e-3 of that end. A probe row that fails raises its own
    FleetContestError. step is checked to be finite and positive but
    sets no scan; it is kept for callers.
    """
    lo, hi = _FLEET.window(lo, hi, step)

    @_quiet
    def slope_and_curvature(x: float, h: float) -> tuple[float, float]:
        stack = _FLEET.stack([x - h, x, x + h])
        down, here, up = stacked_utilities(stack, _solve_stack(stack).solved().x)[:, 1].tolist()
        return (up - down) / (2.0 * h), (up - 2.0 * here + down) / (h * h)

    first, last = lo, hi
    x = 0.5 * (lo + hi)
    while hi - lo > 1e-3:
        h = min(1e-4 * x, 0.25 * (hi - lo))
        x = min(max(x, first + h), last - h)
        slope, curvature = slope_and_curvature(x, h)
        if slope == 0.0:
            return x
        if slope > 0.0:
            lo = x
        else:
            hi = x
        newton = x - slope / curvature if curvature < 0.0 else math.nan
        if lo < newton < hi:
            following = newton
        elif newton > hi == last or newton < lo == first:
            following = min(max(newton, lo), hi)  # The window's end the step points past.
        else:
            following = 0.5 * (lo + hi)
        if abs(following - x) < 1e-7 * x:
            return following
        x = following
    return 0.5 * (lo + hi)


def reference_rows() -> list[SweepRecord]:
    """The four reference scenario rows at alpha 1, 5, 25, and 41."""
    return alpha_sweep("two", [1.0, 5.0, 25.0, 41.0])
