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
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FleetContestError, NumericalError, ValidationError
from .game import (
    FEASIBILITY_RTOL,
    DualCertificate,
    GameSpec,
    JointStrategy,
    SpecStack,
    empty_components,
    joint_from_arrays,
    stack_specs,
)
from .result import InteriorSolveTrace, location_tags

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

#: The solve's stages run with numpy's floating-point warnings off, so a row
#: that overflows fails its own checks alone, whatever the warning filters.
_quiet = np.errstate(all="ignore")


def _offsets_array(spec: GameSpec, offsets) -> np.ndarray:
    out = np.asarray(offsets, dtype=float).reshape(-1)
    if out.size != spec.m:
        raise ValidationError(f"expected {spec.m} offsets, got {out.size}")
    if not np.isfinite(out).all():
        raise ValidationError("offsets must be finite")
    return out


def _checked_gaps(spec: GameSpec, offsets, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Validated gaps offsets - t and their discriminants.

    Raises DomainError at a pole and beyond the domain edge; discriminants
    in [-_DISC_CLAMP_RTOL * beta_m**2, 0] are on the edge.
    """
    offsets = _offsets_array(spec, offsets)
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


def _contest_terms(bm: np.ndarray, eps: np.ndarray, cost: np.ndarray) -> tuple:
    """The parts of _contests that do not move with the water levels, from
    N x m beta_m, eps and shifted costs, each N x 1 x m: beta_m, eps, the
    costs, 4 eps and beta_m eps, formed once per price solve."""
    bm, eps = bm[:, None], eps[:, None]
    return bm, eps, cost[:, None], 4.0 * eps, bm * eps


def _contests(terms: tuple, mu: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Each region's one-region equilibrium at the water levels of each row.

    mu is N x 2 x 1 (mu_a, mu_b). The costs in terms are beta_c -
    min(beta_c), so the per-vehicle prices are cost + mu_a (player a)
    and cost + mu_b; both are positive when the levels are. With both
    players active the region mass T solves s T**2 = beta_m (T + eps)
    for the summed price s, and each player holds the rival's price
    times T**2 / beta_m, less eps. A player that formula leaves at or
    below zero stays out, and its rival alone holds
    sqrt(beta_m eps / p) - eps, or nothing. Returns the allocations as
    an N x 2 x m array and the parts _contest_jacobian needs. terms
    comes from _contest_terms.
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
    return x, (price, root, t, w, active)


def _contest_jacobian(x: np.ndarray, terms: tuple, parts) -> list:
    """Derivatives of the fleet sums of _contests in (mu_a, mu_b), per row.

    Returns (dS_a/dmu_a, dS_a/dmu_b, dS_b/dmu_a, dS_b/dmu_b) for each
    row. Where both players are active, dT/ds = -T**2 / root moves both
    holdings; a lone player's holding moves with its own price as
    -(x + eps) / (2 p).
    """
    price, root, t, w, active = parts
    eps = terms[1]
    both = active[:, :1] & active[:, 1:]
    up = (price * np.where(both, 2.0 * w * t / root, 0.0)).sum(axis=2)
    w_sum = np.where(both, w, 0.0).sum(axis=2)
    lone = np.where(active & ~active[:, ::-1], (x + eps) / (price + price), 0.0).sum(axis=2)
    return [
        (-up_b - lone_a, w_b - up_b, w_b - up_a, -up_a - lone_b)
        for (up_a, up_b), (lone_a, lone_b), (w_b,) in zip(
            up.tolist(), lone.tolist(), w_sum.tolist()
        )
    ]


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
    kappa = None

    def evaluate(gaps):
        nonlocal kappa
        kappa, slopes = _balance(terms, shifts + np.array(gaps)[:, None])
        return kappa.sum(axis=1).tolist(), slopes.tolist()

    searches = [_root_search(i, bm_i[j], eps_i[j], mass_i, b, c)
                for i, (bm_i, eps_i, j, mass_i, b, c) in enumerate(zip(
                    bm.tolist(), eps.tolist(), pole_region.tolist(), mass.tolist(),
                    bm.sum(axis=1).tolist(), np.sqrt(bm * eps).sum(axis=1).tolist()))]
    gaps, evaluations, residuals = zip(*_lockstep(searches, evaluate))
    roots = [p - g for p, g in zip(pole.tolist(), gaps)]
    # The last evaluation holds every row at its final gap.
    return roots, kappa, list(evaluations), list(residuals)


@_quiet
def solve_multiplier_sum(spec: GameSpec, offsets=None) -> float:
    """Solve mass_balance(spec, offsets, t) = 0 for t.

    offsets defaults to 2 * beta_c, the interior-equilibrium case.
    """
    if offsets is None:
        arr = 2.0 * spec.beta_c
    else:
        arr = _offsets_array(spec, offsets)
    mass = spec.fleet_a + spec.fleet_b + float(spec.eps.sum())
    roots, _, _, residuals = _multiplier_sums(
        spec.beta_m[None], spec.eps[None], arr[None], np.array([mass])
    )
    error = _root_error(residuals[0], mass)
    if error is not None:
        raise error
    return roots[0]


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
    failed row's FleetContestError or None. trace(i) reads the root find
    and the candidate's multipliers: a closed row's, or any candidate's.
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


def _interior_candidates(stack: SpecStack) -> _Solution:
    """The closed-form interior candidates of a stack, as a _Solution with nu zero.

    One root find and one closed form serve every row; a row whose root
    misses BALANCE_RTOL carries its NumericalError. closed accepts a
    candidate with no empty component (which implies is_feasible's sign
    test), finite multipliers and both fleet sums within is_feasible's.
    """
    bm, bc, eps, fleets = stack
    mass = fleets[:, 0] + fleets[:, 1] + eps.sum(axis=1)
    roots, kappa, evaluations, residuals = _multiplier_sums(bm, eps, 2.0 * bc, mass)
    x, lambdas = _interior_point(stack, kappa)
    inside = ~empty_components(fleets, x).any(axis=(1, 2))
    closed = inside.tolist()
    if any(closed):  # Skipping the fleet-sum test saves about 1.7% of a boundary solve_spec.
        # is_feasible's test: each row sum adds in is_feasible's order, to the same bits.
        meet = np.abs(x.sum(axis=2) - fleets) <= FEASIBILITY_RTOL * fleets
        closed = (inside & (np.isfinite(lambdas) & meet).all(axis=1)).tolist()
    errors = [_root_error(r, total) for r, total in zip(residuals, mass.tolist())]
    return _Solution(roots, kappa, residuals, x, lambdas, np.zeros(x.shape),
                     ["interior"] * len(roots), evaluations, closed, errors)


@_quiet
def interior_equilibrium(spec: GameSpec) -> InteriorOutcome:
    """Closed-form interior equilibrium candidate.

    Solves the scalar mass balance at offsets 2 * beta_c, reconstructs
    the joint strategy and multipliers, and classifies the candidate as
    interior, boundary-suspect, or not interior.
    """
    candidates = _interior_candidates(stack_specs([spec]))
    if candidates.errors[0] is not None:
        raise candidates.errors[0]
    zeros = np.zeros(spec.m)
    duals = DualCertificate(*candidates.lambdas[0].tolist(), zeros, zeros)
    trace = candidates.trace(0)
    x = candidates.x[0]
    empty = empty_components((spec.fleet_a, spec.fleet_b), x)
    items = tuple(("ab"[p], j, float(x[p, j])) for p, j in np.argwhere(empty).tolist())
    marker = NotInterior(items=items) if items else None
    if marker is not None and marker.strictly_outside:
        return InteriorOutcome(strategy=None, duals=None, trace=trace, not_interior=marker)
    return InteriorOutcome(
        strategy=joint_from_arrays(*x), duals=duals, trace=trace, not_interior=marker
    )


def reconstruct_duals(spec: GameSpec, trace: InteriorSolveTrace) -> DualCertificate:
    """Multipliers of an interior solve, recomputed from the region masses."""
    kappa = np.asarray(trace.region_mass, dtype=float)
    if kappa.size != spec.m:
        raise ValidationError("trace region count does not match the spec")
    _, lambdas = _interior_point(stack_specs([spec]), kappa[None])
    zeros = np.zeros(spec.m)
    return DualCertificate(*lambdas[0].tolist(), zeros, zeros)


def _fleet_errors(sums: list, fleet_a: float, fleet_b: float) -> tuple[tuple, float]:
    """A row's relative fleet-sum errors and their merit, the squared norm."""
    err_a, err_b = sums[0] / fleet_a - 1.0, sums[1] / fleet_b - 1.0
    if err_a == -1.0 or err_b == -1.0:  # A player active nowhere leaves the Jacobian singular.
        return (err_a, err_b), math.inf
    return (err_a, err_b), err_a * err_a + err_b * err_b


def _newton_search(i: int, terms: tuple, levels: tuple, lowest: float, fleet_a: float,
                   fleet_b: float, rounding: float):
    """Row i's Newton on its water levels, as _solve_prices describes.

    An evaluation holds x, the parts, the fleet sums and a list caching the
    Jacobian of every row. Returns the accepted levels, their larger fleet-sum
    error, the evaluations, and the accepting evaluation's x, prices and
    active flags in row i.
    """
    evaluations = 0
    for levels in (levels, (lowest, lowest)):
        held = yield levels
        evaluations += 1
        errors, merit = _fleet_errors(held[2][i], fleet_a, fleet_b)
        if merit != math.inf:
            break  # Else retry at the floor, where both players are active in the cheapest region.
    fresh = True  # The last evaluation set the state; its Newton direction is not formed.
    while True:
        mu_a, mu_b = levels
        if fresh:
            if evaluations >= _MAX_EVALUATIONS or merit <= rounding:
                break
            x, parts, _, jac = held
            if not jac:
                jac += _contest_jacobian(x, terms, parts)
            j_aa, j_ab, j_ba, j_bb = jac[i]
            det = j_aa * j_bb - j_ab * j_ba
            if not det > 0.0:
                break  # Positive whenever both players are active somewhere, bar rounding.
            f_a, f_b = errors[0] * fleet_a, errors[1] * fleet_b
            d_a = (j_ab * f_b - j_bb * f_a) / det
            d_b = (j_ba * f_a - j_aa * f_b) / det
            reach = max(abs(d_a) / mu_a, abs(d_b) / mu_b)
            if not reach > 0.0:
                break  # A step lost to underflow leaves nothing to try.
            step = min(1.0, _MAX_LOG_STEP / reach)
        trial = (mu_a * math.exp(step * d_a / mu_a), mu_b * math.exp(step * d_b / mu_b))
        if trial[0] == mu_a and trial[1] == mu_b:
            break
        evaluation = yield trial
        evaluations += 1
        trial_errors, trial_merit = _fleet_errors(evaluation[2][i], fleet_a, fleet_b)
        fresh = trial_merit < merit
        if fresh:
            levels, errors, merit, held = trial, trial_errors, trial_merit, evaluation
        elif evaluations < _MAX_EVALUATIONS:
            step *= 0.5
        else:
            break
    x, (price, _, _, _, active), _, _ = held
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

    def evaluate(levels):
        x, parts = _contests(terms, np.array(levels)[:, :, None])
        return x, parts, x.sum(axis=2).tolist(), []

    searches = []
    for i, (f, (l_a, l_b), bm_i, eps_i, j, (fleet_a, fleet_b)) in enumerate(zip(
            floor_cost.tolist(), lambdas, bm.tolist(), eps.tolist(), bc.argmin(axis=1).tolist(),
            fleets.tolist())):
        lowest = bm_i[j] * eps_i[j] / (fleet_a + fleet_b + eps_i[j]) ** 2
        start = (max(f - l_a, lowest), max(f - l_b, lowest))
        searches.append(_newton_search(i, terms, start, lowest, fleet_a, fleet_b, rounding))
    levels, fleet_errors, evaluations, x, price, active = zip(*_lockstep(searches, evaluate))
    x, price, active = np.array(x), np.array(price), np.array(active)
    # A player active in one region holds its whole fleet there.
    x = np.where(active & (active.sum(axis=2, keepdims=True) == 1), fleets[:, :, None], x)
    # An inactive player's multiplier is its price less its marginal payoff.
    total = x[:, :1] + x[:, 1:] + eps[:, None]
    gain = bm[:, None] * (x[:, ::-1] + eps[:, None]) / (total * total)
    nu = np.where(active, 0.0, np.maximum(price - gain, 0.0))
    return x, floor_cost[:, None] - np.array(levels), nu, list(evaluations), list(fleet_errors)


def _price_error(fleet_error: float, finite: bool, lambdas, nu, sums,
                 fleets) -> FleetContestError | None:
    """A price row's verdict: None when it is accepted, else the error of the first
    check it fails. Its levels' fleet-sum error must meet BALANCE_RTOL, its
    multipliers be finite, and each allocation's sum pass is_feasible's test."""
    if not fleet_error <= BALANCE_RTOL:
        return NumericalError(
            f"price solve fleet-sum error {fleet_error!r} exceeds tolerance {BALANCE_RTOL!r}"
        )
    if not finite:
        try:
            DualCertificate(*lambdas, *nu)  # Raises with its own message.
        except ValidationError as exc:
            return exc
    for player, total, fleet in zip("ab", sums, fleets):
        if not abs(total - fleet) <= FEASIBILITY_RTOL * fleet:
            return NumericalError(
                f"price solve leaves player {player!r} infeasible: fleet-sum error "
                f"{abs(total - fleet) / fleet!r} exceeds tolerance {FEASIBILITY_RTOL!r}"
            )
    return None


@_quiet
def _solve_stack(stack: SpecStack) -> _Solution:
    """Solve every spec of stack; each row is accepted or failed here, once.

    The interior candidates come first (_interior_candidates). Each row
    they leave open, with a root within BALANCE_RTOL, goes to Newton on
    the water levels from its candidate's multipliers (_solve_prices,
    whose allocations are never negative), and _price_error gives its
    verdict. Each row's outcome is its solo solve's.
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
    finite = (np.isfinite(p_lambdas) & np.isfinite(p_nu).all(axis=2)).all(axis=1).tolist()
    sums, fleets = p_x.sum(axis=2).tolist(), priced.fleets.tolist()
    for k, (i, tag) in enumerate(zip(rows, location_tags(priced.fleets, p_x))):
        tags[i], evaluations[i] = tag, p_evaluations[k]
        errors[i] = _price_error(fleet_errors[k], finite[k], p_lambdas[k], p_nu[k], sums[k],
                                 fleets[k])
    return solution._replace(x=x, lambdas=lambdas, nu=nu)
