"""Interior equilibrium via a monotone scalar root.

At an interior equilibrium both players' stationarity conditions pin,
region by region, the total regional mass (both allocations plus the
abandonment offset) as a function of one scalar: the sum of the two
fleet-sum multipliers. Summing those masses and subtracting the mass
that is actually available gives a strictly increasing scalar function
whose unique root identifies the equilibrium. The root is found left of
the smallest pole by safeguarded Newton steps in the gap to that pole,
inside a sign bracket known in closed form, and the full joint strategy
plus multipliers follow in closed form.
"""

import math
from dataclasses import dataclass

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
#: scaled by the total mass fleet_a + fleet_b + sum(eps).
BALANCE_RTOL = 1e-10

# Discriminants in [-1e-12 * beta_m**2, 0) are rounding noise and clamp to 0.
_DISC_CLAMP_RTOL = 1e-12

# Safety cap on balance evaluations per root find; no case-study spec needs more than 9.
_MAX_EVALUATIONS = 100


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


def _interior_duals(spec: GameSpec, kappa: np.ndarray) -> DualCertificate:
    """Fleet-sum multipliers from the region masses; no nonnegativity slack."""
    weights = kappa * kappa / spec.beta_m
    total = float(weights.sum())
    cost_term = float((spec.beta_c * weights).sum())
    eps_sum = float(spec.eps.sum())
    lam_a = (cost_term - eps_sum - spec.fleet_b) / total
    lam_b = (cost_term - eps_sum - spec.fleet_a) / total
    return DualCertificate(lam_a, lam_b, np.zeros(spec.m), np.zeros(spec.m))


def interior_equilibrium(spec: GameSpec) -> InteriorOutcome:
    """Closed-form interior equilibrium candidate.

    Solves the scalar mass balance at offsets 2 * beta_c, reconstructs
    the joint strategy and multipliers, and classifies the candidate as
    interior, boundary-suspect, or not interior.
    """
    offsets = 2.0 * spec.beta_c
    t, kappa, iterations, residual = _solve_multiplier_sum(spec, offsets)
    duals = _interior_duals(spec, kappa)
    weights = kappa * kappa / spec.beta_m
    x_a = weights * (spec.beta_c - duals.lambda_b) - spec.eps
    x_b = weights * (spec.beta_c - duals.lambda_a) - spec.eps
    trace = InteriorSolveTrace(
        multiplier_sum=t,
        region_mass=kappa,
        lambda_a=duals.lambda_a,
        lambda_b=duals.lambda_b,
        balance_residual=residual,
        iterations=iterations,
    )

    items = tuple(
        (player, j, float(value))
        for player, vec, fleet in (("a", x_a, spec.fleet_a), ("b", x_b, spec.fleet_b))
        for j, value in enumerate(vec)
        if value <= SUPPORT_RTOL * fleet
    )
    marker = NotInterior(items=items) if items else None
    if marker is not None and marker.strictly_outside:
        return InteriorOutcome(strategy=None, duals=None, trace=trace, not_interior=marker)
    strategy = joint_from_arrays(x_a, x_b)
    return InteriorOutcome(strategy=strategy, duals=duals, trace=trace, not_interior=marker)


def reconstruct_duals(spec: GameSpec, trace: InteriorSolveTrace) -> DualCertificate:
    """Multipliers of an interior solve, recomputed from the region masses."""
    kappa = np.asarray(trace.region_mass, dtype=float)
    if kappa.size != spec.m:
        raise ValidationError("trace region count does not match the spec")
    return _interior_duals(spec, kappa)
