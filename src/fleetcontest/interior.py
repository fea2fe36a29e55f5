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
    joint_from_arrays,
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


def _offsets_array(spec: GameSpec, offsets) -> np.ndarray:
    out = np.asarray(offsets, dtype=float).reshape(-1)
    if out.size != spec.m:
        raise ValidationError(f"expected {spec.m} offsets, got {out.size}")
    if not np.all(np.isfinite(out)):
        raise ValidationError("offsets must be finite")
    return out


def _checked_gaps(spec: GameSpec, offsets, t: float) -> tuple[np.ndarray, float]:
    """Validated gaps offsets - t, and t as a float."""
    offsets = _offsets_array(spec, offsets)
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError("t must be finite")
    gaps = offsets - t
    if np.any(gaps == 0.0):
        raise DomainError(f"t={t!r} sits on a pole of the mass balance")
    return gaps, t


def _balance(spec: GameSpec, gaps: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """Region masses at gaps = offsets - t, and the t-derivative of their sum.

    The unchecked kernel behind mass_balance, mass_balance_derivative and
    the root find; one square root serves both outputs. t only names the
    point in errors. The derivative is inf where a discriminant is zero.
    """
    bm = spec.beta_m
    disc = bm * bm + 4.0 * bm * spec.eps * gaps
    if disc.min() > 0.0:
        root = np.sqrt(disc)
        terms = bm * (root + bm + 2.0 * spec.eps * gaps) / (2.0 * gaps * gaps * root)
        slope = float(terms.sum())
    else:
        bad = disc < -_DISC_CLAMP_RTOL * bm * bm
        if np.any(bad):
            raise DomainError(
                f"t={t!r} is beyond the domain edge in regions {np.nonzero(bad)[0].tolist()}"
            )
        root = np.sqrt(np.maximum(disc, 0.0))
        slope = math.inf
    return (bm + root) / (2.0 * gaps), slope


def _contests(
    bm: np.ndarray, eps: np.ndarray, cost: np.ndarray, mu_a: float, mu_b: float
) -> tuple[np.ndarray, tuple]:
    """Each region's one-region equilibrium at water levels mu_a and mu_b.

    cost holds the shifted charging costs beta_c - min(beta_c), so row
    0 of the per-vehicle prices is cost + mu_a (player a) and row 1 is
    cost + mu_b; both are positive when the levels are. With both
    players active the region mass T solves s T**2 = beta_m (T + eps)
    for the summed price s, and each player holds the rival's price
    times T**2 / beta_m, less eps. A player that formula leaves at or
    below zero stays out, and its rival alone holds
    sqrt(beta_m eps / p) - eps, or nothing. Returns the allocations as
    a 2 x m array and the parts _contest_jacobian needs.
    """
    price = np.add.outer((mu_a, mu_b), cost)
    s = price[0] + price[1]
    root = np.sqrt(bm * (bm + 4.0 * eps * s))
    t = (bm + root) / (s + s)
    w = t * t / bm
    x = price[::-1] * w - eps
    active = x > 0.0
    if not active.all():
        # A player whose rival is out holds its lone amount. Where both formulas
        # fail, lone entry does not pay either, so the region stays empty.
        x = np.where(active[::-1], x, np.sqrt(bm * eps / price) - eps)
        active = x > 0.0
        x = np.where(active, x, 0.0)
    return x, (price, root, t, w, active)


def _contest_jacobian(x: np.ndarray, eps: np.ndarray, parts) -> tuple[float, ...]:
    """Derivatives of the fleet sums of _contests in (mu_a, mu_b).

    Returns (dS_a/dmu_a, dS_a/dmu_b, dS_b/dmu_a, dS_b/dmu_b). Where both
    players are active, dT/ds = -T**2 / root moves both holdings; a lone
    player's holding moves with its own price as -(x + eps) / (2 p).
    """
    price, root, t, w, active = parts
    u = 2.0 * w * t / root
    lone_a = lone_b = 0.0
    both = active[0] & active[1]
    if not both.all():
        u = np.where(both, u, 0.0)
        w = np.where(both, w, 0.0)
        lone = np.where(active & ~active[::-1], (x + eps) / (price + price), 0.0)
        lone_a, lone_b = lone.sum(axis=1).tolist()
    up_a, up_b = (price * u).sum(axis=1).tolist()
    w_sum = float(w.sum())
    return -up_b - lone_a, w_sum - up_b, w_sum - up_a, -up_a - lone_b


def mass_balance(spec: GameSpec, offsets, t: float) -> float:
    """Implied total regional mass at multiplier sum t, minus available mass.

    Strictly increasing in t left of the smallest offset; its root there
    is the interior equilibrium's multiplier sum. Defined wherever every
    discriminant is nonnegative and t hits no offset exactly.
    """
    gaps, t = _checked_gaps(spec, offsets, t)
    kappa, _ = _balance(spec, gaps, t)
    return float(kappa.sum() - (spec.fleet_a + spec.fleet_b + spec.eps.sum()))


def mass_balance_derivative(spec: GameSpec, offsets, t: float) -> float:
    """Derivative of mass_balance in t, valid strictly inside the domain."""
    gaps, t = _checked_gaps(spec, offsets, t)
    _, slope = _balance(spec, gaps, t)
    if slope == math.inf:
        raise DomainError(f"t={t!r} is not strictly inside the domain")
    return slope


def _solve_multiplier_sum(
    spec: GameSpec, offsets: np.ndarray
) -> tuple[float, np.ndarray, int, float]:
    """Root of mass_balance left of the smallest offset, the pole.

    Returns (root, region masses at the root, evaluations, residual);
    evaluations counts every call of the balance kernel.

    The search runs in the pole gap g = pole - t > 0, where the total
    region mass falls from +inf to 0. Region gaps are formed as
    (offsets - pole) + g, so nothing cancels when g is far below |pole|.
    The bracket is known in closed form: the pole region alone holds the
    whole mass at g = beta_m (mass + eps) / mass**2 (its own beta_m and
    eps), at or left of the root; bounding each region's mass by
    beta_m / g + sqrt(beta_m eps / g) gives a quadratic in 1 / sqrt(g)
    whose root is at or right of it. From the left end, Newton steps on
    log(total mass) against log(g) shrink the bracket, and a step that
    would leave it becomes a bisection of log(g). The iteration stops when
    the balance is exactly zero or no double is left to try, so the root
    does not depend on a stopping tolerance.
    """
    bm, eps = spec.beta_m, spec.eps
    pole_region = int(np.argmin(offsets))
    pole = float(offsets[pole_region])
    shifts = offsets - pole
    mass = float(spec.fleet_a + spec.fleet_b + eps.sum())
    low = float(bm[pole_region] * (mass + eps[pole_region])) / (mass * mass)
    b, c = float(bm.sum()), float(np.sqrt(bm * eps).sum())
    high = ((c + math.sqrt(c * c + 4.0 * b * mass)) / (2.0 * mass)) ** 2

    g = low
    evaluations = 0
    while True:
        kappa, slope = _balance(spec, shifts + g, pole - g)
        evaluations += 1
        total = float(kappa.sum())
        residual = total - mass
        if residual == 0.0 or evaluations == _MAX_EVALUATIONS:
            break
        if residual > 0.0:
            low = g
        else:
            high = g
        step = math.log1p(residual / mass) * total / (g * slope)
        if math.log(low / g) < step < math.log(high / g):
            g_next = g + g * math.expm1(step)
        else:
            g_next = math.sqrt(low) * math.sqrt(high)
        if not low < g_next < high:
            break
        g = g_next

    if not abs(residual) <= BALANCE_RTOL * mass:
        raise NumericalError(
            f"root residual {residual!r} exceeds tolerance {BALANCE_RTOL * mass!r}"
        )
    return pole - g, kappa, evaluations, residual


def solve_multiplier_sum(spec: GameSpec, offsets=None) -> float:
    """Solve mass_balance(spec, offsets, t) = 0 for t.

    offsets defaults to 2 * beta_c, the interior-equilibrium case.
    """
    if offsets is None:
        arr = 2.0 * spec.beta_c
    else:
        arr = _offsets_array(spec, offsets)
    root, _, _, _ = _solve_multiplier_sum(spec, arr)
    return root


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


def _interior_point(
    spec: GameSpec, kappa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, DualCertificate]:
    """Allocations and fleet-sum multipliers from the region masses.

    Charging costs enter relative to the cheapest region's: a constant
    added to every beta_c moves both multipliers by that constant and
    leaves the allocations alone, so the shifted multipliers form the
    allocations and the shift is added back to the reported ones only.
    No nonnegativity slack.
    """
    floor_cost = float(spec.beta_c.min())
    cost = spec.beta_c - floor_cost
    weights = kappa * kappa / spec.beta_m
    total = float(weights.sum())
    cost_term = float((cost * weights).sum())
    eps_sum = float(spec.eps.sum())
    lam_a = (cost_term - eps_sum - spec.fleet_b) / total
    lam_b = (cost_term - eps_sum - spec.fleet_a) / total
    x_a = weights * (cost - lam_b) - spec.eps
    x_b = weights * (cost - lam_a) - spec.eps
    zeros = np.zeros(spec.m)
    return x_a, x_b, DualCertificate(lam_a + floor_cost, lam_b + floor_cost, zeros, zeros)


def interior_equilibrium(spec: GameSpec) -> InteriorOutcome:
    """Closed-form interior equilibrium candidate.

    Solves the scalar mass balance at offsets 2 * beta_c, reconstructs
    the joint strategy and multipliers, and classifies the candidate as
    interior, boundary-suspect, or not interior.
    """
    offsets = 2.0 * spec.beta_c
    t, kappa, iterations, residual = _solve_multiplier_sum(spec, offsets)
    x_a, x_b, duals = _interior_point(spec, kappa)
    trace = InteriorSolveTrace(
        multiplier_sum=t,
        region_mass=kappa,
        lambda_a=duals.lambda_a,
        lambda_b=duals.lambda_b,
        balance_residual=residual,
        iterations=iterations,
    )

    # A plain loop: the generator expression it replaces raised the peak RSS
    # of a process by 0.6 MB over 40000 solves (Python 3.11), while tracemalloc
    # showed no object left behind.
    items = []
    for player, vec, fleet in (("a", x_a, spec.fleet_a), ("b", x_b, spec.fleet_b)):
        for j, value in enumerate(vec.tolist()):
            if value <= SUPPORT_RTOL * fleet:
                items.append((player, j, value))
    marker = NotInterior(items=tuple(items)) if items else None
    if marker is not None and marker.strictly_outside:
        return InteriorOutcome(strategy=None, duals=None, trace=trace, not_interior=marker)
    strategy = joint_from_arrays(x_a, x_b)
    return InteriorOutcome(strategy=strategy, duals=duals, trace=trace, not_interior=marker)


def reconstruct_duals(spec: GameSpec, trace: InteriorSolveTrace) -> DualCertificate:
    """Multipliers of an interior solve, recomputed from the region masses."""
    kappa = np.asarray(trace.region_mass, dtype=float)
    if kappa.size != spec.m:
        raise ValidationError("trace region count does not match the spec")
    return _interior_point(spec, kappa)[2]


class _PriceState(NamedTuple):
    """One evaluation of the two-price system."""

    mu_a: float
    mu_b: float
    x: np.ndarray
    parts: tuple
    err_a: float
    err_b: float
    merit: float


def _solve_prices(
    spec: GameSpec, lambda_a: float, lambda_b: float
) -> tuple[np.ndarray, DualCertificate, int]:
    """The equilibrium for any support, by Newton on the two water levels.

    Fixing mu_a = -lambda_a and mu_b = -lambda_b splits the game into
    independent one-region contests (_contests); the equilibrium levels
    are the unique root of the two fleet-sum equations (diagonal strict
    concavity). Levels are kept relative to the cheapest region's cost,
    so the part of the charging costs every region shares never enters
    a difference. The start is the given multipliers, raised to a floor
    no equilibrium level lies below: the cheapest region's price when
    it holds both fleets. Newton steps move the levels multiplicatively,
    so they stay positive, and are halved until the squared relative
    fleet-sum error falls. The iteration stops once both fleet sums are
    met to the rounding of an m-term sum, or when no double is left to
    try.

    Returns the allocations as a 2 x m array, the multipliers, and the
    number of kernel evaluations. Inactive components are exactly 0, and
    a player active in one region holds exactly its fleet there.
    """
    bm, eps = spec.beta_m, spec.eps
    fleet_a, fleet_b = spec.fleet_a, spec.fleet_b
    cheap = int(spec.beta_c.argmin())
    floor_cost = float(spec.beta_c[cheap])
    cost = spec.beta_c - floor_cost
    lowest = float(bm[cheap] * eps[cheap]) / (fleet_a + fleet_b + float(eps[cheap])) ** 2

    def evaluate(mu_a: float, mu_b: float) -> _PriceState:
        x, parts = _contests(bm, eps, cost, mu_a, mu_b)
        sum_a, sum_b = x.sum(axis=1).tolist()
        err_a, err_b = sum_a / fleet_a - 1.0, sum_b / fleet_b - 1.0
        # A player active nowhere would leave the Jacobian singular.
        if err_a == -1.0 or err_b == -1.0:
            merit = math.inf
        else:
            merit = err_a * err_a + err_b * err_b
        return _PriceState(mu_a, mu_b, x, parts, err_a, err_b, merit)

    state = evaluate(max(floor_cost - lambda_a, lowest), max(floor_cost - lambda_b, lowest))
    evaluations = 1
    if state.merit == math.inf:
        # At the floor both players are active in the cheapest region.
        state = evaluate(lowest, lowest)
        evaluations += 1
    rounding = 4.0 * spec.m * _ULP
    while evaluations < _MAX_EVALUATIONS and not state.merit <= rounding * rounding:
        j_aa, j_ab, j_ba, j_bb = _contest_jacobian(state.x, eps, state.parts)
        det = j_aa * j_bb - j_ab * j_ba
        if not det > 0.0:
            break  # Positive whenever both players are active somewhere, bar rounding.
        f_a, f_b = state.err_a * fleet_a, state.err_b * fleet_b
        d_a = (j_ab * f_b - j_bb * f_a) / det
        d_b = (j_ba * f_a - j_aa * f_b) / det
        step = min(1.0, _MAX_LOG_STEP / max(abs(d_a) / state.mu_a, abs(d_b) / state.mu_b))
        accepted = None
        while accepted is None and evaluations < _MAX_EVALUATIONS:
            mu_a = state.mu_a * math.exp(step * d_a / state.mu_a)
            mu_b = state.mu_b * math.exp(step * d_b / state.mu_b)
            if mu_a == state.mu_a and mu_b == state.mu_b:
                break
            trial = evaluate(mu_a, mu_b)
            evaluations += 1
            if trial.merit < state.merit:
                accepted = trial
            step *= 0.5
        if accepted is None:
            break
        state = accepted

    fleet_error = max(abs(state.err_a), abs(state.err_b))
    if not fleet_error <= BALANCE_RTOL:
        raise NumericalError(
            f"price solve fleet-sum error {fleet_error!r} exceeds tolerance {BALANCE_RTOL!r}"
        )
    x = state.x
    price, _, _, _, active = state.parts
    for row, (flags, fleet) in enumerate(zip(active.tolist(), (fleet_a, fleet_b))):
        if flags.count(True) == 1:
            x[row, flags.index(True)] = fleet
    # An inactive player's multiplier is its price less its marginal payoff.
    total = x[0] + x[1] + eps
    nu = np.where(active, 0.0, np.maximum(price - bm * (x[::-1] + eps) / (total * total), 0.0))
    duals = DualCertificate(floor_cost - state.mu_a, floor_cost - state.mu_b, nu[0], nu[1])
    return x, duals, evaluations
