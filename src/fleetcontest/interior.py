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
(_solve_prices).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .game import (
    SUPPORT_RTOL,
    DualCertificate,
    GameSpec,
    JointStrategy,
    SpecStack,
    joint_from_arrays,
    stack_specs,
)

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

    The unchecked kernel of the root find and the public mass balance;
    one square root serves both outputs. terms comes from _balance_terms.
    Every discriminant must be positive, as it is for positive gaps.
    """
    bm, bm_squared, disc_slope, two_eps = terms
    root = np.sqrt(bm_squared + disc_slope * gaps)
    two_gaps = 2.0 * gaps
    slopes = bm * (root + bm + two_eps * gaps) / (two_gaps * gaps * root)
    return (bm + root) / two_gaps, slopes.sum(axis=-1)


class _ContestTerms(NamedTuple):
    """The parts of _contests that do not move with the water levels, each
    N x 1 x m: beta_m, eps, the shifted costs, 4 eps and beta_m eps."""

    bm: np.ndarray
    eps: np.ndarray
    cost: np.ndarray
    four_eps: np.ndarray
    bm_eps: np.ndarray

    @classmethod
    def of(cls, bm: np.ndarray, eps: np.ndarray, cost: np.ndarray) -> "_ContestTerms":
        """The terms of N x m beta_m, eps and shifted costs."""
        bm, eps = bm[:, None], eps[:, None]
        return cls(bm, eps, cost[:, None], 4.0 * eps, bm * eps)


def _contests(terms: _ContestTerms, mu: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Each region's one-region equilibrium at the water levels of each row.

    mu is N x 2 x 1 (mu_a, mu_b). The costs in terms are beta_c -
    min(beta_c), so the per-vehicle prices are cost + mu_a (player a)
    and cost + mu_b; both are positive when the levels are. With both
    players active the region mass T solves s T**2 = beta_m (T + eps)
    for the summed price s, and each player holds the rival's price
    times T**2 / beta_m, less eps. A player that formula leaves at or
    below zero stays out, and its rival alone holds
    sqrt(beta_m eps / p) - eps, or nothing. Returns the allocations as
    an N x 2 x m array and the parts _contest_jacobian needs.
    """
    bm, eps = terms.bm, terms.eps
    price = mu + terms.cost
    s = price[:, :1] + price[:, 1:]
    root = np.sqrt(bm * (bm + terms.four_eps * s))
    t = (bm + root) / (s + s)
    w = t * t / bm
    x = price[:, ::-1] * w - eps
    active = x > 0.0
    if not active.all():
        # A player whose rival is out holds its lone amount. Where both formulas
        # fail, lone entry does not pay either, so the region stays empty.
        x = np.where(active[:, ::-1], x, np.sqrt(terms.bm_eps / price) - eps)
        active = x > 0.0
        x = np.where(active, x, 0.0)
    return x, (price, root, t, w, active)


def _contest_jacobian(x: np.ndarray, terms: _ContestTerms, parts) -> list:
    """Derivatives of the fleet sums of _contests in (mu_a, mu_b), per row.

    Returns (dS_a/dmu_a, dS_a/dmu_b, dS_b/dmu_a, dS_b/dmu_b) for each
    row. Where both players are active, dT/ds = -T**2 / root moves both
    holdings; a lone player's holding moves with its own price as
    -(x + eps) / (2 p).
    """
    price, root, t, w, active = parts
    both = active[:, :1] & active[:, 1:]
    up = (price * np.where(both, 2.0 * w * t / root, 0.0)).sum(axis=2)
    w_sum = np.where(both, w, 0.0).sum(axis=2)
    lone = np.where(active & ~active[:, ::-1], (x + terms.eps) / (price + price), 0.0).sum(axis=2)
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
    if disc.min() > 0.0:
        kappa, _ = _balance(_balance_terms(spec.beta_m, spec.eps), gaps)
    else:
        kappa = (spec.beta_m + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * gaps)
    return float(kappa.sum() - (spec.fleet_a + spec.fleet_b + spec.eps.sum()))


def mass_balance_derivative(spec: GameSpec, offsets, t: float) -> float:
    """Derivative of mass_balance in t, valid strictly inside the domain."""
    gaps, disc = _checked_gaps(spec, offsets, t)
    if not disc.min() > 0.0:
        raise DomainError(f"t={float(t)!r} is not strictly inside the domain")
    return float(_balance(_balance_terms(spec.beta_m, spec.eps), gaps)[1])


def _multiplier_sums(
    bm: np.ndarray, eps: np.ndarray, offsets: np.ndarray, mass: np.ndarray
) -> tuple[list, np.ndarray, list, list]:
    """Root of the mass balance left of each row's smallest offset, the pole.

    bm, eps and offsets are N x m, mass (fleet_a + fleet_b + sum(eps))
    has length N. Returns, row by row, the roots, the region masses at
    the roots (N x m), the evaluations and the residuals; a row's
    evaluations count the kernel calls made while it was searching.

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

    One kernel call evaluates every row at once; a stopped row keeps its
    gap, so later calls give it the same masses again. The step and
    bracket decisions are made per row in math, whose log1p and expm1
    can differ from numpy's in the last bit, so a row's root does not
    depend on the rows beside it.
    """
    pole_region = offsets.argmin(axis=1)
    pole = offsets.min(axis=1)
    shifts = offsets - pole[:, None]
    masses = mass.tolist()
    b, c = bm.sum(axis=1).tolist(), np.sqrt(bm * eps).sum(axis=1).tolist()
    lows, highs = [], []
    for bm_i, eps_i, j, mass_i, b_i, c_i in zip(
        bm.tolist(), eps.tolist(), pole_region.tolist(), masses, b, c
    ):
        try:
            lows.append(bm_i[j] * (mass_i + eps_i[j]) / (mass_i * mass_i))
            highs.append(((c_i + math.sqrt(c_i * c_i + 4.0 * b_i * mass_i)) / (2.0 * mass_i)) ** 2)
        except (ZeroDivisionError, OverflowError):
            lows.append(0.0)  # As when mass * mass overflows: the row is tried at the pole.
            highs.append(0.0)
    gs = lows[:]
    g = np.array(gs)[:, None]  # The gaps of gs as the kernel's column.
    evaluations = [0] * len(lows)
    residuals = [0.0] * len(lows)
    live = range(len(lows))
    terms = _balance_terms(bm, eps)
    while live:
        kappa, slopes = _balance(terms, shifts + g)
        totals, slopes = kappa.sum(axis=1).tolist(), slopes.tolist()
        going = []
        for i in live:
            evaluations[i] += 1
            g_i, low, high, mass_i, total = gs[i], lows[i], highs[i], masses[i], totals[i]
            residual = residuals[i] = total - mass_i
            if residual == 0.0 or evaluations[i] == _MAX_EVALUATIONS:
                continue
            if residual > 0.0:
                low = lows[i] = g_i
            else:
                high = highs[i] = g_i
            try:
                step = math.log1p(residual / mass_i) * total / (g_i * slopes[i])
                if math.log(low / g_i) < step < math.log(high / g_i):
                    g_next = g_i + g_i * math.expm1(step)
                else:
                    g_next = math.sqrt(low) * math.sqrt(high)
            except (ZeroDivisionError, OverflowError, ValueError):
                continue  # At the pole, or beyond what math represents: the row stops.
            if low < g_next < high:
                gs[i] = g[i, 0] = g_next
                going.append(i)
        live = going
    roots = [p - g_i for p, g_i in zip(pole.tolist(), gs)]
    return roots, kappa, evaluations, residuals


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
class InteriorSolveTrace:
    """Diagnostics of one interior solve.

    multiplier_sum is the root t; region_mass holds each region's total
    mass (both allocations plus epsilon) implied at the root; iterations
    counts every evaluation of the mass balance in the root find.
    """

    multiplier_sum: float
    region_mass: np.ndarray
    lambda_a: float
    lambda_b: float
    balance_residual: float
    iterations: int

    def __post_init__(self):
        mass = np.array(self.region_mass, dtype=float).reshape(-1)
        mass.setflags(write=False)
        object.__setattr__(self, "region_mass", mass)


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


class _InteriorCandidates:
    """The closed-form interior candidates of a stack of specs.

    One root find and one closed form serve every row: the roots, region
    masses, evaluations and residuals of the root find, each row's
    NumericalError when its root misses BALANCE_RTOL (else None), both
    allocations as x (N x 2 x m) and the multipliers as lambdas (N x 2).
    empty marks the components at or below the support threshold; a row
    with none is an interior candidate.
    """

    def __init__(self, stack: SpecStack):
        bm, bc, eps, fleets = stack
        mass = fleets[:, 0] + fleets[:, 1] + eps.sum(axis=1)
        self.roots, self.kappa, self.evaluations, self.residuals = _multiplier_sums(
            bm, eps, 2.0 * bc, mass
        )
        self.x, self.lambdas = _interior_point(stack, self.kappa)
        self.empty = self.x <= SUPPORT_RTOL * fleets[:, :, None]
        self.errors = [_root_error(r, total) for r, total in zip(self.residuals, mass.tolist())]

    def trace(self, i: int) -> InteriorSolveTrace:
        """Row i's trace."""
        return InteriorSolveTrace(self.roots[i], self.kappa[i], *self.lambdas[i].tolist(),
                                  self.residuals[i], self.evaluations[i])


@_quiet
def interior_equilibrium(spec: GameSpec) -> InteriorOutcome:
    """Closed-form interior equilibrium candidate.

    Solves the scalar mass balance at offsets 2 * beta_c, reconstructs
    the joint strategy and multipliers, and classifies the candidate as
    interior, boundary-suspect, or not interior.
    """
    candidates = _InteriorCandidates(stack_specs([spec]))
    if candidates.errors[0] is not None:
        raise candidates.errors[0]
    zeros = np.zeros(spec.m)
    duals = DualCertificate(*candidates.lambdas[0].tolist(), zeros, zeros)
    trace = candidates.trace(0)
    x = candidates.x[0]
    values = x.tolist()
    items = tuple(("ab"[p], j, values[p][j]) for p, j in np.argwhere(candidates.empty[0]).tolist())
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

    One kernel call evaluates every row at once, each at its own trial
    levels (a stopped row at its final ones); the steps, backtracking
    and stops are decided per row in math, so a row's result does not
    depend on the rows beside it.

    Returns the allocations (N x 2 x m), the multipliers lambda (N x 2)
    and nu (N x 2 x m), and per row its kernel evaluations and the larger
    relative fleet-sum error of its levels, for the caller to accept or
    reject. Inactive components are exactly 0, and a player active in one
    region holds exactly its fleet there.
    """
    bm, bc, eps, fleets = stack
    n, m = bm.shape
    floor_cost = bc.min(axis=1)
    terms = _ContestTerms.of(bm, eps, bc - floor_cost[:, None])
    floors, fleet_rows = floor_cost.tolist(), fleets.tolist()
    lowest = [
        bm_i[j] * eps_i[j] / (fleet_a + fleet_b + eps_i[j]) ** 2
        for bm_i, eps_i, j, (fleet_a, fleet_b) in zip(
            bm.tolist(), eps.tolist(), bc.argmin(axis=1).tolist(), fleet_rows
        )
    ]
    rounding = 4.0 * m * _ULP
    rounding *= rounding

    def evaluate(levels):
        x, parts = _contests(terms, np.array(levels)[:, :, None])
        errors = [
            (sum_a / fleet_a - 1.0, sum_b / fleet_b - 1.0)
            for (sum_a, sum_b), (fleet_a, fleet_b) in zip(x.sum(axis=2).tolist(), fleet_rows)
        ]
        return x, parts, errors

    def merit(err_a: float, err_b: float) -> float:
        # A player active nowhere would leave the Jacobian singular.
        if err_a == -1.0 or err_b == -1.0:
            return math.inf
        return err_a * err_a + err_b * err_b

    levels = [
        (max(f - l_a, low), max(f - l_b, low))
        for f, (l_a, l_b), low in zip(floors, lambdas, lowest)
    ]
    x, parts, errors = evaluate(levels)
    evaluations = [1] * n
    merits = [merit(*e) for e in errors]
    if math.inf in merits:
        # At the floor both players are active in the cheapest region.
        for i, mt in enumerate(merits):
            if mt == math.inf:
                levels[i] = (lowest[i], lowest[i])
                evaluations[i] += 1
        x, parts, errors = evaluate(levels)
        merits = [merit(*e) for e in errors]
    # A row's accepted state: its levels, fleet-sum errors and merit, and
    # the evaluation that holds its allocations. levels[i] is the row's
    # pending trial, else its state's levels.
    states = list(zip(levels, errors, merits))
    held = [(x, parts)] * n
    fresh = range(n)  # Rows whose state the last evaluation set.
    moves = {}  # Row -> its Newton direction and the step of its next trial.
    while True:
        fresh = [i for i in fresh
                 if evaluations[i] < _MAX_EVALUATIONS and not states[i][2] <= rounding]
        if fresh:
            jac = _contest_jacobian(x, terms, parts)
        for i in fresh:
            (mu_a, mu_b), (err_a, err_b), _ = states[i]
            j_aa, j_ab, j_ba, j_bb = jac[i]
            det = j_aa * j_bb - j_ab * j_ba
            if not det > 0.0:
                continue  # Positive whenever both players are active somewhere, bar rounding.
            fleet_a, fleet_b = fleet_rows[i]
            f_a, f_b = err_a * fleet_a, err_b * fleet_b
            d_a = (j_ab * f_b - j_bb * f_a) / det
            d_b = (j_ba * f_a - j_aa * f_b) / det
            reach = max(abs(d_a) / mu_a, abs(d_b) / mu_b)
            if not reach > 0.0:
                continue  # A step lost to underflow leaves nothing to try.
            moves[i] = (d_a, d_b, min(1.0, _MAX_LOG_STEP / reach))
        for i, (d_a, d_b, step) in list(moves.items()):
            mu_a, mu_b = states[i][0]
            trial = (mu_a * math.exp(step * d_a / mu_a), mu_b * math.exp(step * d_b / mu_b))
            if trial[0] == mu_a and trial[1] == mu_b:
                levels[i] = states[i][0]
                del moves[i]
            else:
                levels[i] = trial
        if not moves:
            break
        x, parts, errors = evaluate(levels)
        fresh = []
        for i, (d_a, d_b, step) in list(moves.items()):
            evaluations[i] += 1
            mt = merit(*errors[i])
            if mt < states[i][2]:
                states[i] = (levels[i], errors[i], mt)
                held[i] = (x, parts)
                fresh.append(i)
                del moves[i]
            elif evaluations[i] < _MAX_EVALUATIONS:
                moves[i] = (d_a, d_b, step * 0.5)
            else:
                levels[i] = states[i][0]
                del moves[i]

    if all(h is held[0] for h in held):
        x, (price, _, _, _, active) = held[0]
    else:
        x = np.array([h[0][i] for i, h in enumerate(held)])
        price = np.array([h[1][0][i] for i, h in enumerate(held)])
        active = np.array([h[1][4][i] for i, h in enumerate(held)])
    # A player active in one region holds its whole fleet there.
    for i, (flags_i, fleets_i) in enumerate(zip(active.tolist(), fleet_rows)):
        for player, (flags, fleet) in enumerate(zip(flags_i, fleets_i)):
            if flags.count(True) == 1:
                x[i, player, flags.index(True)] = fleet
    # An inactive player's multiplier is its price less its marginal payoff.
    total = x[:, :1] + x[:, 1:] + terms.eps
    gain = terms.bm * (x[:, ::-1] + terms.eps) / (total * total)
    nu = np.where(active, 0.0, np.maximum(price - gain, 0.0))
    lambdas = [(f - mu_a, f - mu_b) for f, ((mu_a, mu_b), _, _) in zip(floors, states)]
    fleet_errors = [max(abs(err_a), abs(err_b)) for _, (err_a, err_b), _ in states]
    return x, np.array(lambdas), nu, evaluations, fleet_errors
