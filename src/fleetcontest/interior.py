"""Interior equilibrium via a monotone scalar root.

At an interior equilibrium both players' stationarity conditions pin,
region by region, the total regional mass (both allocations plus the
abandonment offset) as a function of one scalar: the sum of the two
fleet-sum multipliers. Summing those masses and subtracting the mass
that is actually available gives a strictly increasing scalar function
whose unique root identifies the equilibrium. The root is bracketed to
the left of the smallest pole, bisected, polished with a few guarded
Newton steps, and the full joint strategy plus multipliers follow in
closed form.
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


def _region_mass(spec: GameSpec, gaps: np.ndarray, t: float) -> np.ndarray:
    """Each region's total mass implied at multiplier sum t, from gaps = offsets - t."""
    bm = spec.beta_m
    disc = bm * bm + 4.0 * bm * spec.eps * gaps
    bad = disc < -_DISC_CLAMP_RTOL * bm * bm
    if np.any(bad):
        raise DomainError(
            f"t={t!r} is beyond the domain edge in regions {np.nonzero(bad)[0].tolist()}"
        )
    return (bm + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * gaps)


def mass_balance(spec: GameSpec, offsets, t: float) -> float:
    """Implied total regional mass at multiplier sum t, minus available mass.

    Strictly increasing in t left of the smallest offset; its root there
    is the interior equilibrium's multiplier sum. Defined wherever every
    discriminant is nonnegative and t hits no offset exactly.
    """
    gaps, t = _checked_gaps(spec, offsets, t)
    terms = _region_mass(spec, gaps, t)
    return float(terms.sum() - (spec.fleet_a + spec.fleet_b + spec.eps.sum()))


def mass_balance_derivative(spec: GameSpec, offsets, t: float) -> float:
    """Derivative of mass_balance in t, valid strictly inside the domain."""
    gaps, t = _checked_gaps(spec, offsets, t)
    ratio = spec.eps / spec.beta_m
    inner = 1.0 + 4.0 * ratio * gaps
    if np.any(inner <= 0.0):
        raise DomainError(f"t={t!r} is not strictly inside the domain")
    terms = spec.beta_m / (2.0 * gaps * gaps) * (1.0 + (1.0 + 2.0 * ratio * gaps) / np.sqrt(inner))
    return float(terms.sum())


def _solve_multiplier_sum(spec: GameSpec, offsets: np.ndarray) -> tuple[float, int, float]:
    """Root of mass_balance left of the smallest offset.

    Returns (root, iterations, residual). The left bracket end grows
    geometrically; nothing assumes the root is positive.
    """
    pole = float(offsets.min())
    mass = spec.fleet_a + spec.fleet_b + float(spec.eps.sum())
    scale = max(1.0, abs(pole))
    iterations = 0

    gap = 1e-9 * scale
    t_high = pole - gap
    f_high = mass_balance(spec, offsets, t_high)
    for _ in range(8):
        if f_high > 0.0:
            break
        gap /= 16.0
        t_high = pole - gap
        f_high = mass_balance(spec, offsets, t_high)
        iterations += 1
    if f_high <= 0.0:
        raise NumericalError("could not find a positive end for the root bracket")

    step = scale
    t_low = pole - step
    f_low = mass_balance(spec, offsets, t_low)
    while f_low >= 0.0:
        step *= 2.0
        if step > 2.0**200 * scale:
            raise NumericalError("mass balance never went negative while growing the bracket")
        t_low = pole - step
        f_low = mass_balance(spec, offsets, t_low)
        iterations += 1

    width_tol = 1e-13 * max(1.0, abs(t_low), abs(t_high))
    while t_high - t_low > width_tol:
        mid = 0.5 * (t_low + t_high)
        if mid <= t_low or mid >= t_high:
            break
        f_mid = mass_balance(spec, offsets, mid)
        iterations += 1
        if f_mid == 0.0:
            t_low = t_high = mid
            break
        if f_mid > 0.0:
            t_high = mid
        else:
            t_low = mid

    t = 0.5 * (t_low + t_high)
    f_t = mass_balance(spec, offsets, t)
    for _ in range(4):
        if abs(f_t) <= 1e-14 * mass:
            break
        try:
            slope = mass_balance_derivative(spec, offsets, t)
        except DomainError:
            break
        if not slope > 0.0:
            break
        t_next = t - f_t / slope
        if not t_low <= t_next <= t_high:
            break
        f_next = mass_balance(spec, offsets, t_next)
        iterations += 1
        if abs(f_next) >= abs(f_t):
            break
        t, f_t = t_next, f_next

    if abs(f_t) > BALANCE_RTOL * mass:
        raise NumericalError(
            f"root residual {f_t!r} exceeds tolerance {BALANCE_RTOL * mass!r}"
        )
    return t, iterations, f_t


def solve_multiplier_sum(spec: GameSpec, offsets=None) -> float:
    """Solve mass_balance(spec, offsets, t) = 0 for t.

    offsets defaults to 2 * beta_c, the interior-equilibrium case.
    """
    if offsets is None:
        arr = 2.0 * spec.beta_c
    else:
        arr = _offsets_array(spec, offsets)
    root, _, _ = _solve_multiplier_sum(spec, arr)
    return root


@dataclass(frozen=True)
class InteriorSolveTrace:
    """Diagnostics of one interior solve.

    multiplier_sum is the root t; region_mass holds each region's total
    mass (both allocations plus epsilon) implied at the root.
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
    t, iterations, residual = _solve_multiplier_sum(spec, offsets)
    kappa = _region_mass(spec, offsets - t, t)
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
