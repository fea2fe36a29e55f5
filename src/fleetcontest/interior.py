"""Equilibria via closed forms and monotone roots.

At an interior equilibrium both players' stationarity conditions pin,
region by region, the total regional mass (both allocations plus the
abandonment offset) as a function of one scalar: the sum of the two
fleet-sum multipliers. Summing those masses and subtracting the mass
that is actually available gives a strictly increasing scalar function
whose unique root identifies the equilibrium. The root is found left of
the smallest pole by safeguarded Newton steps in the gap to that pole,
inside a sign bracket known in closed form, and the full joint strategy
plus multipliers follow in closed form.

An equilibrium with empty components comes from the two multipliers
themselves. Fixing both water levels splits the game into one-region
contests, each with a closed-form equilibrium whatever its support, and
Newton on the two fleet-sum equations finds the levels
(_solve_prices). _solve_stack accepts or fails each row of a batch once.

Both the root find and the price Newton run one scalar search per row,
in lockstep (_lockstep): each step evaluates the kernel once for every
row, and each row decides its next trial from its own row alone, in
math, so a batch entry is bit for bit the spec solved alone.

Each kernel has two forms. The array kernels (_balance, _contests)
evaluate any stack; the row kernels (_balance_row, _contest_row)
evaluate a stack of one row with fewer than 8 regions in Python floats,
without numpy's per-call cost on arrays that short. The stack's shape
alone picks the form, and a search reads one contract from either:
_contests and _contest_row both return the allocations, prices, active
flags, fleet sums and Jacobian of each row, and the root find's
evaluate hands _root_search each row's mass sum and slope sum from
either balance kernel. A row kernel makes the array kernel's operations
(+, -, *, / and sqrt, which IEEE 754 rounds correctly in Python and
numpy alike) in the same order, and sums regions left to right from
0.0, as numpy sums a contiguous row of fewer than 8 doubles; so both
forms give the same bits. Where Python raises (a division by zero or
the square root of a negative number, where numpy gives inf or nan),
the array kernel redoes that evaluation.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FleetContestError, NumericalError, ValidationError
from .game import (
    DualCertificate,
    GameSpec,
    JointStrategy,
    SpecStack,
    _fleet_sum_miss,
    _joint_rows,
    _quiet,
    empty_components,
    fleet_sums_met,
    stack_specs,
)
from .result import EquilibriumResult, InteriorSolveTrace, location_tags

#: Relative tolerance of the scalar-equation residual at the returned root,
#: scaled by the total mass fleet_a + fleet_b + sum(eps); the price solve
#: holds each fleet sum to the same share of its fleet.
BALANCE_RTOL = 1e-10

# Discriminants in [-1e-12 * beta_m**2, 0) are rounding noise and clamp to 0.
_DISC_CLAMP_RTOL = 1e-12

# Safety cap on kernel evaluations per root find or price solve; no case-study
# spec needs more than 9, and no box spec more than 20 in the price solve.
_MAX_EVALUATIONS = 100

# Largest change of a log water level in one price-solve step.
_MAX_LOG_STEP = 2.0

_ULP = float(np.finfo(float).eps)

# The row kernels serve one-row stacks of fewer regions than this: numpy sums
# a contiguous row of fewer than 8 doubles left to right, as they do.
_ROW_REGIONS = 8

# What the row kernels raise where numpy gives inf or nan: a division by zero,
# and math.sqrt of a negative number. Python's float +, -, * and / overflow to
# inf as numpy's do. The array kernel redoes such an evaluation.
_ROW_ERRORS = (ZeroDivisionError, ValueError)


def _checked_gaps(spec: GameSpec, offsets, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Validated gaps offsets - t and their discriminants.

    Raises DomainError at a pole and beyond the domain edge; discriminants
    in [-_DISC_CLAMP_RTOL * beta_m**2, 0] are on the edge.
    """
    offsets = np.asarray(offsets, dtype=float).reshape(-1)
    if offsets.size != spec.m:
        raise ValidationError(f"expected {spec.m} offsets, got {offsets.size}")
    if not np.isfinite(offsets).all():
        raise ValidationError("offsets must be finite")
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError("t must be finite")
    gaps = offsets - t
    if (gaps == 0.0).any():
        raise DomainError(f"t={t!r} sits on a pole of the mass balance")
    bm = spec.beta_m
    disc = bm * bm + 4.0 * bm * spec.eps * gaps
    bad = disc < -_DISC_CLAMP_RTOL * bm * bm
    if bad.any():
        raise DomainError(
            f"t={t!r} is beyond the domain edge in regions {np.nonzero(bad)[0].tolist()}"
        )
    return gaps, disc


def _balance_terms(bm: np.ndarray, eps: np.ndarray) -> tuple:
    """The parts of _balance that do not move with t: beta_m, beta_m**2,
    4 beta_m eps and 2 eps, formed once per root find."""
    return bm, bm * bm, 4.0 * bm * eps, 2.0 * eps


def _balance(terms: tuple, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Region masses at the given gaps = offsets - t, and the t-derivative
    of their sum, for each row of a stack.

    The unchecked kernel of the root find and mass_balance_derivative;
    one square root serves both outputs. terms comes from _balance_terms.
    Every discriminant must be positive, as it is for positive gaps.
    """
    bm, bm_squared, disc_slope, two_eps = terms
    root = np.sqrt(bm_squared + disc_slope * gaps)
    two_gaps = 2.0 * gaps
    slopes = bm * (root + bm + two_eps * gaps) / (two_gaps * gaps * root)
    return (bm + root) / two_gaps, slopes.sum(axis=-1)


def _balance_row(terms: list, gaps: list) -> tuple[list, float, float]:
    """_balance for one row in Python floats: the region masses, their sum
    and the sum of their t-derivatives.

    terms holds the row of each of _balance_terms' arrays as a list, and
    gaps the row's gaps. The operations and sums are _balance's, so the
    bits are too (see the module docstring). A zero gap raises
    ZeroDivisionError and a negative discriminant ValueError.
    """
    kappa, total, slope = [], 0.0, 0.0
    for bm, bm_squared, disc_slope, two_eps, gap in zip(*terms, gaps):
        root = math.sqrt(bm_squared + disc_slope * gap)
        two_gap = 2.0 * gap
        mass = (bm + root) / two_gap
        kappa.append(mass)
        total += mass
        slope += bm * (root + bm + two_eps * gap) / (two_gap * gap * root)
    return kappa, total, slope


def _contest_terms(bm: np.ndarray, eps: np.ndarray, cost: np.ndarray) -> tuple:
    """The parts of _contests that do not move with the water levels, from
    N x m beta_m, eps and shifted costs, each N x 1 x m: beta_m, eps, the
    costs, 4 eps and beta_m eps, formed once per price solve."""
    bm, eps = bm[:, None], eps[:, None]
    return bm, eps, cost[:, None], 4.0 * eps, bm * eps


def _contests(terms: tuple, mu: np.ndarray) -> tuple:
    """Each region's one-region equilibrium at the water levels of each row,
    with the fleet sums and their Jacobian.

    mu is N x 2 x 1 (mu_a, mu_b). The costs in terms are beta_c -
    min(beta_c), so the per-vehicle prices are cost + mu_a (player a)
    and cost + mu_b; both are positive when the levels are. With both
    players active the region mass T solves s T**2 = beta_m (T + eps)
    for the summed price s, and each player holds the rival's price
    times T**2 / beta_m, less eps. A player that formula leaves at or
    below zero stays out, and its rival alone holds
    sqrt(beta_m eps / p) - eps, or nothing. terms comes from
    _contest_terms.

    Returns the contract both forms of the kernel share: the allocations,
    prices and active flags as N x 2 x m arrays, then per row the fleet
    sums [S_a, S_b] and the Jacobian (dS_a/dmu_a, dS_a/dmu_b, dS_b/dmu_a,
    dS_b/dmu_b), as lists. Where both players are active, dT/ds =
    -T**2 / root moves both holdings; a lone player's holding moves with
    its own price as -(x + eps) / (2 p).
    """
    bm, eps, cost, four_eps, bm_eps = terms
    price = mu + cost
    s = price[:, :1] + price[:, 1:]
    root = np.sqrt(bm * (bm + four_eps * s))
    t = (bm + root) / (s + s)
    w = t * t / bm
    x = price[:, ::-1] * w - eps
    active = x > 0.0
    # A player whose rival is out holds its lone amount. Where both formulas
    # fail, lone entry does not pay either, so the region stays empty.
    x = np.where(active[:, ::-1], x, np.sqrt(bm_eps / price) - eps)
    active = x > 0.0
    x = np.where(active, x, 0.0)
    both = active[:, :1] & active[:, 1:]
    up = (price * np.where(both, 2.0 * w * t / root, 0.0)).sum(axis=2)
    w_sum = np.where(both, w, 0.0).sum(axis=2)
    lone = np.where(active & ~active[:, ::-1], (x + eps) / (price + price), 0.0).sum(axis=2)
    jacobian = [(-up_b - lone_a, w_b - up_b, w_b - up_a, -up_a - lone_b)
                for (up_a, up_b), (lone_a, lone_b), (w_b,) in zip(
                    up.tolist(), lone.tolist(), w_sum.tolist())]
    return x, price, active, x.sum(axis=2).tolist(), jacobian


def _contest_row(terms: list, mu_a: float, mu_b: float) -> tuple:
    """_contests for one row in Python floats, in one pass over the regions.

    terms holds the row of each of _contest_terms' arrays as a list.
    Returns _contests' contract for the row: the allocations [x_a, x_b],
    prices [p_a, p_b] and active flags [active_a, active_b] as lists, the
    fleet sums [S_a, S_b] and the Jacobian 4-tuple. The operations and
    sums are _contests', so the bits are too (see the module docstring);
    a zero price or price sum raises ZeroDivisionError.
    """
    x_a, x_b, price_a, price_b, active_a, active_b = [], [], [], [], [], []
    sum_a = sum_b = up_a = up_b = w_sum = lone_a = lone_b = 0.0
    for bm, eps, cost, four_eps, bm_eps in zip(*terms):
        p_a, p_b = mu_a + cost, mu_b + cost
        s = p_a + p_b
        root = math.sqrt(bm * (bm + four_eps * s))
        t = (bm + root) / (s + s)
        w = t * t / bm
        a, b = p_b * w - eps, p_a * w - eps
        a, b = (a if b > 0.0 else math.sqrt(bm_eps / p_a) - eps,
                b if a > 0.0 else math.sqrt(bm_eps / p_b) - eps)
        in_a, in_b = a > 0.0, b > 0.0
        a, b = a if in_a else 0.0, b if in_b else 0.0
        x_a.append(a)
        x_b.append(b)
        price_a.append(p_a)
        price_b.append(p_b)
        active_a.append(in_a)
        active_b.append(in_b)
        sum_a += a
        sum_b += b
        both = in_a and in_b
        moved = 2.0 * w * t / root if both else 0.0
        up_a += p_a * moved
        up_b += p_b * moved
        w_sum += w if both else 0.0
        lone_a += (a + eps) / (p_a + p_a) if in_a and not in_b else 0.0
        lone_b += (b + eps) / (p_b + p_b) if in_b and not in_a else 0.0
    jacobian = (-up_b - lone_a, w_sum - up_b, w_sum - up_a, -up_a - lone_b)
    return [x_a, x_b], [price_a, price_b], [active_a, active_b], [sum_a, sum_b], jacobian


def mass_balance(spec: GameSpec, offsets, t: float) -> float:
    """Implied total regional mass at multiplier sum t, minus available mass.

    Strictly increasing in t left of the smallest offset; its root there
    is the interior equilibrium's multiplier sum. Defined wherever every
    discriminant is nonnegative and t hits no offset exactly.
    """
    gaps, disc = _checked_gaps(spec, offsets, t)
    kappa = (spec.beta_m + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * gaps)
    return float(kappa.sum() - (spec.fleet_a + spec.fleet_b + spec.eps.sum()))


def mass_balance_derivative(spec: GameSpec, offsets, t: float) -> float:
    """Derivative of mass_balance in t, valid strictly inside the domain."""
    gaps, disc = _checked_gaps(spec, offsets, t)
    if not disc.min() > 0.0:
        raise DomainError(f"t={float(t)!r} is not strictly inside the domain")
    return float(_balance(_balance_terms(spec.beta_m, spec.eps), gaps)[1])


def _short_row(values: np.ndarray) -> bool:
    """Whether a stack's N x m values are one row of fewer than _ROW_REGIONS
    regions, which the row kernels evaluate."""
    return values.shape[0] == 1 and values.shape[1] < _ROW_REGIONS


def _lockstep(searches: list, evaluate) -> list:
    """Run one search per row of a stack in lockstep and return their results.

    Each search is a generator: it yields a trial, is sent the whole
    evaluation of all rows' trials, and returns its result. Each step
    makes one evaluate call for every row while any search is live; a
    row that has finished keeps its last trial. A search reads only its
    own row and decides in math, whose log1p, expm1, exp and log can
    differ from numpy's in the last bit, so a row's result is its solo
    solve's, whatever rows stand beside it.
    """
    trials = [next(search) for search in searches]
    results = [None] * len(searches)
    live = [(i, search.send) for i, search in enumerate(searches)]
    while live:
        evaluation = evaluate(trials)
        going = []
        for row in live:
            i, send = row
            try:
                trials[i] = send(evaluation)
                going.append(row)
            except StopIteration as stop:
                results[i] = stop.value
        live = going
    return results


def _root_search(i: int, bm: float, eps: float, mass: float, b: float, c: float):
    """Row i's search for the gap g to its pole, as _multiplier_sums describes.

    bm and eps are the pole region's, b and c the row's sums of beta_m and
    sqrt(beta_m eps). Returns the last gap, the evaluations and the residual.
    """
    try:
        low = bm * (mass + eps) / (mass * mass)
        high = ((c + math.sqrt(c * c + 4.0 * b * mass)) / (2.0 * mass)) ** 2
    except (ZeroDivisionError, OverflowError):
        low = high = 0.0  # As when mass * mass overflows: the row is tried at the pole.
    g = low
    evaluations = 0
    while True:
        totals, slopes = yield g
        evaluations += 1
        total = totals[i]
        residual = total - mass
        if residual == 0.0 or evaluations == _MAX_EVALUATIONS:
            break
        if residual > 0.0:
            low = g
        else:
            high = g
        try:
            step = math.log1p(residual / mass) * total / (g * slopes[i])
            if math.log(low / g) < step < math.log(high / g):
                g_next = g + g * math.expm1(step)
            else:
                g_next = math.sqrt(low) * math.sqrt(high)
        except (ZeroDivisionError, OverflowError, ValueError):
            break  # At the pole, or beyond what math represents: the row stops.
        if not low < g_next < high:
            break
        g = g_next
    return g, evaluations, residual


def _multiplier_sums(
    bm: np.ndarray, eps: np.ndarray, offsets: np.ndarray, mass: np.ndarray
) -> tuple[list, np.ndarray, list, list]:
    """Root of the mass balance left of each row's smallest offset, the pole.

    bm, eps and offsets are N x m, mass (fleet_a + fleet_b + sum(eps))
    has length N. Returns, row by row, the roots, the region masses at
    the roots (N x m), the evaluations and the residuals.

    The search runs in the pole gap g = pole - t > 0, where the total
    region mass falls from +inf to 0. Region gaps are formed as
    (offsets - pole) + g, so nothing cancels when g is far below |pole|.
    The bracket is known in closed form: the pole region alone holds the
    whole mass at g = beta_m (mass + eps) / mass**2 (its own beta_m and
    eps), at or left of the root; bounding each region's mass by
    beta_m / g + sqrt(beta_m eps / g) gives a quadratic in 1 / sqrt(g)
    whose root is at or right of it. From the left end, Newton steps on
    log(total mass) against log(g) shrink the bracket, and a step that
    would leave it becomes a bisection of log(g). A row stops when its
    balance is exactly zero or no double is left to try, so the root
    does not depend on a stopping tolerance. A row whose bracket or step
    leaves the range of a double stops where it is; at the pole its
    residual is infinite and fails the root check.
    """
    pole_region = offsets.argmin(axis=1)
    pole = offsets.min(axis=1)
    shifts = offsets - pole[:, None]
    terms = _balance_terms(bm, eps)
    row = ([a[0].tolist() for a in terms], shifts[0].tolist()) if _short_row(bm) else None
    kappa = None

    def evaluate(gaps):
        nonlocal kappa
        if row is not None:
            row_terms, row_shifts = row
            try:
                masses, total, slope = _balance_row(row_terms, [s + gaps[0] for s in row_shifts])
            except _ROW_ERRORS:
                pass  # The array kernel redoes the evaluation.
            else:
                kappa = [masses]
                return [total], [slope]
        kappa, slopes = _balance(terms, shifts + np.array(gaps)[:, None])
        return kappa.sum(axis=1).tolist(), slopes.tolist()

    searches = [_root_search(i, bm_i[j], eps_i[j], mass_i, b, c)
                for i, (bm_i, eps_i, j, mass_i, b, c) in enumerate(zip(
                    bm.tolist(), eps.tolist(), pole_region.tolist(), mass.tolist(),
                    bm.sum(axis=1).tolist(), np.sqrt(bm * eps).sum(axis=1).tolist()))]
    gaps, evaluations, residuals = zip(*_lockstep(searches, evaluate))
    roots = [p - g for p, g in zip(pole.tolist(), gaps)]
    # The last evaluation holds every row at its final gap.
    return roots, np.asarray(kappa, dtype=float), list(evaluations), list(residuals)


def _root_error(residual: float, mass: float) -> NumericalError | None:
    """The NumericalError of a root whose residual misses BALANCE_RTOL * mass."""
    if abs(residual) <= BALANCE_RTOL * mass:
        return None
    return NumericalError(f"root residual {residual!r} exceeds tolerance {BALANCE_RTOL * mass!r}")


@dataclass(frozen=True)
class NotInterior:
    """Marks interior-candidate components that are not safely positive.

    items holds (player, region index, component value) triples; values
    at or below zero mean the candidate is strictly outside the interior,
    small positive values mean boundary-suspect.
    """

    items: tuple[tuple[str, int, float], ...]

    @property
    def strictly_outside(self) -> bool:
        return any(value <= 0.0 for _, _, value in self.items)


@dataclass(frozen=True)
class InteriorOutcome:
    """Result of interior_equilibrium.

    strategy and duals are present when the closed-form candidate has all
    components positive (including the boundary-suspect case); they are
    None when some component came out nonpositive. not_interior is None
    exactly when the candidate is safely interior.
    """

    strategy: JointStrategy | None
    duals: DualCertificate | None
    trace: InteriorSolveTrace
    not_interior: NotInterior | None

    @property
    def is_interior(self) -> bool:
        return self.not_interior is None


def _interior_point(stack: SpecStack, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Allocations and fleet-sum multipliers from the region masses, per row.

    Charging costs enter relative to the cheapest region's: a constant
    added to every beta_c moves both multipliers by that constant and
    leaves the allocations alone, so the shifted multipliers form the
    allocations and the shift is added back to the reported ones only.
    Returns the allocations (N x 2 x m) and the reported (lambda_a,
    lambda_b) (N x 2).
    """
    bm, bc, eps, fleets = stack
    floor_cost = bc.min(axis=1)[:, None]
    cost = bc - floor_cost
    weights = kappa * kappa / bm
    total = weights.sum(axis=1)[:, None]
    base = ((cost * weights).sum(axis=1) - eps.sum(axis=1))[:, None]
    lam = (base - fleets[:, ::-1]) / total
    x = weights[:, None] * (cost[:, None] - lam[:, ::-1, None]) - eps[:, None]
    return x, lam + floor_cost


class _Solution(NamedTuple):
    """A solved stack of N specs, row by row: the interior root find's
    roots, region masses kappa (N x m) and residuals; the allocations x
    (N x 2 x m), multipliers lambdas (N x 2) and nu (N x 2 x m), location
    tag and evaluations (the root find's, or the price solve's kernel
    calls); closed, the rows the closed form answers; and errors, a
    failed row's FleetContestError or None.

    Its methods are the one place a row becomes public objects: trace(i)
    reads the root find and the candidate's multipliers (a closed row's,
    or any candidate's), duals(i) the row's multipliers, strategies(rows)
    the given rows' joint strategies in one step, and result(i, spec) the
    row's EquilibriumResult or error; solved() raises the first failing
    row's error.
    """

    roots: list
    kappa: np.ndarray
    residuals: list
    x: np.ndarray
    lambdas: np.ndarray
    nu: np.ndarray
    tags: list
    evaluations: list
    closed: list
    errors: list

    def trace(self, i: int) -> InteriorSolveTrace:
        """Row i's trace."""
        return InteriorSolveTrace(self.roots[i], self.kappa[i], *self.lambdas[i].tolist(),
                                  self.residuals[i], self.evaluations[i])

    def duals(self, i: int) -> DualCertificate:
        """Row i's multipliers."""
        return DualCertificate(*self.lambdas[i].tolist(), *self.nu[i])

    def strategies(self, rows: list) -> list[JointStrategy]:
        """The JointStrategy of each of the given rows, in their order, built
        for all of them at once (game._joint_rows)."""
        return _joint_rows(self.x[rows])

    def result(self, i: int, spec: GameSpec) -> EquilibriumResult | FleetContestError:
        """Row i's EquilibriumResult, whose spec is spec, or the row's error."""
        if self.errors[i] is not None:
            return self.errors[i]
        trace = self.trace(i) if self.closed[i] else None
        return EquilibriumResult(self.strategies([i])[0], self.duals(i), self.tags[i], spec,
                                 trace, iterations=self.evaluations[i])

    def solved(self) -> "_Solution":
        """This solution, once no row has failed; else the first failing
        row's own FleetContestError is raised."""
        for error in self.errors:
            if error is not None:
                raise error
        return self


def _accepted(fleets, x, lambdas, nu=None) -> np.ndarray:
    """The solve's acceptance rule, one flag per row of a stack: every
    multiplier finite, and each allocation in x meeting the fleet-sum rule
    (game.fleet_sums_met). fleets is N x 2, x and nu N x 2 x m, lambdas N x 2;
    nu is None for the closed form, whose nu is zero."""
    met = np.isfinite(lambdas) & fleet_sums_met(fleets, x)
    if nu is not None:
        met &= np.isfinite(nu).all(axis=2)
    return met.all(axis=1)


def _rejection(solve: str, fleets, x, lambdas, nu) -> NumericalError | None:
    """One row's verdict under _accepted: None when it is accepted, else the
    NumericalError, naming solve, of the first check it fails, in the order
    lambda_a, lambda_b, nu_a, nu_b, then player a's fleet sum and b's."""
    for name, value in zip(("lambda_a", "lambda_b", "nu_a", "nu_b"), (*lambdas, *nu)):
        if not np.isfinite(value).all():
            return NumericalError(f"{solve} multiplier {name} is not finite: {value.tolist()}")
    for player, met, total, fleet in zip("ab", fleet_sums_met(fleets, x).tolist(),
                                         x.sum(axis=1).tolist(), fleets.tolist()):
        if not met:
            return NumericalError(
                f"{solve} leaves player {player!r} infeasible: {_fleet_sum_miss(total, fleet)}"
            )
    return None


def _interior_candidates(stack: SpecStack) -> _Solution:
    """The closed-form interior candidates of a stack, as a _Solution with nu zero.

    One root find and one closed form serve every row; a row whose root
    misses BALANCE_RTOL carries its NumericalError. closed accepts a
    candidate with no empty component (which implies is_feasible's sign
    test) that passes the solve's rule (_accepted).
    """
    bm, bc, eps, fleets = stack
    mass = fleets[:, 0] + fleets[:, 1] + eps.sum(axis=1)
    roots, kappa, evaluations, residuals = _multiplier_sums(bm, eps, 2.0 * bc, mass)
    x, lambdas = _interior_point(stack, kappa)
    nu = np.zeros(x.shape)
    inside = ~empty_components(fleets, x).any(axis=(1, 2))
    closed = inside.tolist()
    if any(closed):  # Skipping the fleet-sum test saves about 1.7% of a boundary solve_spec.
        closed = (inside & _accepted(fleets, x, lambdas)).tolist()
    errors = [_root_error(r, total) for r, total in zip(residuals, mass.tolist())]
    return _Solution(roots, kappa, residuals, x, lambdas, nu, ["interior"] * len(roots),
                     evaluations, closed, errors)


@_quiet
def interior_equilibrium(spec: GameSpec) -> InteriorOutcome:
    """Closed-form interior equilibrium candidate.

    Solves the scalar mass balance at offsets 2 * beta_c, reconstructs
    the joint strategy and multipliers, and classifies the candidate as
    interior, boundary-suspect, or not interior. A candidate with no
    empty component is interior only under the solve's own rule
    (_accepted); one that fails it raises the NumericalError of the
    first check it fails (_rejection).
    """
    candidates = _interior_candidates(stack_specs([spec])).solved()
    trace, x, lambdas = candidates.trace(0), candidates.x[0], candidates.lambdas[0]
    fleets = np.array([spec.fleet_a, spec.fleet_b])
    empty = empty_components(fleets, x)
    items = tuple(("ab"[p], j, float(x[p, j])) for p, j in np.argwhere(empty).tolist())
    marker = NotInterior(items=items) if items else None
    if marker is not None and marker.strictly_outside:
        return InteriorOutcome(strategy=None, duals=None, trace=trace, not_interior=marker)
    if marker is None and not candidates.closed[0]:
        raise _rejection("closed form", fleets, x, lambdas, candidates.nu[0])
    return InteriorOutcome(strategy=candidates.strategies([0])[0], duals=candidates.duals(0),
                           trace=trace, not_interior=marker)


def _fleet_errors(sums: list, fleet_a: float, fleet_b: float) -> tuple[tuple, float]:
    """A row's relative fleet-sum errors and their merit, the squared norm."""
    err_a, err_b = sums[0] / fleet_a - 1.0, sums[1] / fleet_b - 1.0
    if err_a == -1.0 or err_b == -1.0:  # A player active nowhere leaves the Jacobian singular.
        return (err_a, err_b), math.inf
    return (err_a, err_b), err_a * err_a + err_b * err_b


def _newton_search(i: int, levels: tuple, lowest: float, fleet_a: float, fleet_b: float,
                   rounding: float):
    """Row i's Newton on its water levels, as _solve_prices describes.

    An evaluation is _contests' contract for every row: x, prices, active
    flags, fleet sums and Jacobians. Returns the accepted levels, their
    larger fleet-sum error, the evaluations, and the accepting evaluation's
    x, prices and active flags in row i.
    """
    evaluations = 0
    for levels in (levels, (lowest, lowest)):
        held = yield levels
        evaluations += 1
        errors, merit = _fleet_errors(held[3][i], fleet_a, fleet_b)
        if merit != math.inf:
            break  # Else retry at the floor, where both players are active in the cheapest region.
    fresh = True  # The last evaluation set the state; its Newton direction is not formed.
    while True:
        mu_a, mu_b = levels
        if fresh:
            if evaluations >= _MAX_EVALUATIONS or merit <= rounding:
                break
            j_aa, j_ab, j_ba, j_bb = held[4][i]
            det = j_aa * j_bb - j_ab * j_ba
            if not det > 0.0:
                break  # Positive whenever both players are active somewhere, bar rounding.
            f_a, f_b = errors[0] * fleet_a, errors[1] * fleet_b
            d_a = (j_ab * f_b - j_bb * f_a) / det
            d_b = (j_ba * f_a - j_aa * f_b) / det
            if not (mu_a > 0.0 and mu_b > 0.0):
                break  # A level underflowed to zero; no multiplicative step leaves it.
            reach = max(abs(d_a) / mu_a, abs(d_b) / mu_b)
            if not reach > 0.0:
                break  # A step lost to underflow leaves nothing to try.
            step = min(1.0, _MAX_LOG_STEP / reach)
        trial = (mu_a * math.exp(step * d_a / mu_a), mu_b * math.exp(step * d_b / mu_b))
        if trial[0] == mu_a and trial[1] == mu_b:
            break
        evaluation = yield trial
        evaluations += 1
        trial_errors, trial_merit = _fleet_errors(evaluation[3][i], fleet_a, fleet_b)
        fresh = trial_merit < merit
        if fresh:
            levels, errors, merit, held = trial, trial_errors, trial_merit, evaluation
        elif evaluations < _MAX_EVALUATIONS:
            step *= 0.5
        else:
            break
    x, price, active, _, _ = held
    return levels, max(abs(errors[0]), abs(errors[1])), evaluations, x[i], price[i], active[i]


def _solve_prices(stack: SpecStack, lambdas) -> tuple:
    """The equilibrium for any support, by Newton on the two water levels.

    lambdas holds a start (lambda_a, lambda_b) per stacked spec. Fixing
    mu_a = -lambda_a and mu_b = -lambda_b splits the game into
    independent one-region contests (_contests); the equilibrium levels
    are the unique root of the two fleet-sum equations (diagonal strict
    concavity). Levels are kept relative to the cheapest region's cost,
    so the part of the charging costs every region shares never enters
    a difference. The start is the given multipliers, raised to a floor
    no equilibrium level lies below: the cheapest region's price when
    it holds both fleets. Newton steps move the levels multiplicatively,
    so they stay positive, and are halved until the squared relative
    fleet-sum error falls. A row stops once both fleet sums are met to
    the rounding of an m-term sum, or when no double is left to try.

    Returns the allocations (N x 2 x m), the multipliers lambda (N x 2)
    and nu (N x 2 x m), and per row its kernel evaluations and the larger
    relative fleet-sum error of its levels, for the caller to accept or
    reject. Inactive components are exactly 0, and a player active in one
    region holds exactly its fleet there.
    """
    bm, bc, eps, fleets = stack
    floor_cost = bc.min(axis=1)
    terms = _contest_terms(bm, eps, bc - floor_cost[:, None])
    rounding = 4.0 * bm.shape[1] * _ULP
    rounding *= rounding
    row = [a[0, 0].tolist() for a in terms] if _short_row(bm) else None

    def evaluate(levels):
        if row is not None:
            try:
                x, price, active, sums, jacobian = _contest_row(row, *levels[0])
            except _ROW_ERRORS:
                pass  # The array kernel redoes the evaluation.
            else:
                return [x], [price], [active], [sums], [jacobian]
        return _contests(terms, np.array(levels)[:, :, None])

    searches = []
    for i, (f, (l_a, l_b), bm_i, eps_i, j, (fleet_a, fleet_b)) in enumerate(zip(
            floor_cost.tolist(), lambdas, bm.tolist(), eps.tolist(), bc.argmin(axis=1).tolist(),
            fleets.tolist())):
        try:
            lowest = bm_i[j] * eps_i[j] / (fleet_a + fleet_b + eps_i[j]) ** 2
        except ZeroDivisionError:
            lowest = math.inf  # The square underflows to 0: the row fails its fleet sums alone.
        start = (max(f - l_a, lowest), max(f - l_b, lowest))
        searches.append(_newton_search(i, start, lowest, fleet_a, fleet_b, rounding))
    levels, fleet_errors, evaluations, x, price, active = zip(*_lockstep(searches, evaluate))
    x, price, active = np.array(x), np.array(price), np.array(active)
    # A player active in one region holds its whole fleet there.
    x = np.where(active & (active.sum(axis=2, keepdims=True) == 1), fleets[:, :, None], x)
    # An inactive player's multiplier is its price less its marginal payoff.
    total = x[:, :1] + x[:, 1:] + eps[:, None]
    gain = bm[:, None] * (x[:, ::-1] + eps[:, None]) / (total * total)
    nu = np.where(active, 0.0, np.maximum(price - gain, 0.0))
    return x, floor_cost[:, None] - np.array(levels), nu, list(evaluations), list(fleet_errors)


@_quiet
def _solve_stack(stack: SpecStack) -> _Solution:
    """Solve every spec of stack; each row is accepted or failed here, once.

    The interior candidates come first (_interior_candidates). Each row
    they leave open, with a root within BALANCE_RTOL, goes to Newton on
    the water levels from its candidate's multipliers (_solve_prices,
    whose allocations are never negative). A row whose levels miss
    BALANCE_RTOL fails; the others pass or fail the solve's rule
    (_accepted, _rejection). Each row's outcome is its solo solve's.
    """
    solution = _interior_candidates(stack)
    *_, x, lambdas, nu, tags, evaluations, closed, errors = solution
    rows = [i for i, (error, done) in enumerate(zip(errors, closed)) if error is None and not done]
    if not rows:
        return solution
    priced = stack if len(rows) == len(errors) else stack.take(rows)
    starts = [lambdas[i].tolist() for i in rows]
    p_x, p_lambdas, p_nu, p_evaluations, fleet_errors = _solve_prices(priced, starts)
    if priced is stack:  # Skipping take and the scatter saves about 5% of a boundary solve_spec.
        x, lambdas, nu = p_x, p_lambdas, p_nu
    else:
        x[rows], lambdas[rows], nu[rows] = p_x, p_lambdas, p_nu
    accepted = _accepted(priced.fleets, p_x, p_lambdas, p_nu).tolist()
    for k, (i, tag) in enumerate(zip(rows, location_tags(priced.fleets, p_x))):
        tags[i], evaluations[i] = tag, p_evaluations[k]
        # Beside _accepted, this binds only where a player is active in one region: such
        # a player is handed its whole fleet, so only the Newton state's sum shows
        # whether its water level converged.
        if not fleet_errors[k] <= BALANCE_RTOL:
            errors[i] = NumericalError(f"price solve fleet-sum error {fleet_errors[k]!r}"
                                       f" exceeds tolerance {BALANCE_RTOL!r}")
        elif not accepted[k]:
            errors[i] = _rejection("price solve", priced.fleets[k], p_x[k], p_lambdas[k], p_nu[k])
    return solution._replace(x=x, lambdas=lambdas, nu=nu)
