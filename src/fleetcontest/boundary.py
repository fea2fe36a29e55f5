"""The paper's two-region boundary check, kept as an oracle.

When the interior candidate fails, a two-region equilibrium must sit in
one of four families, each pinning one player entirely into one region
while the other player splits z vehicles into region 1:

    A1: a = (0, X_a),     b = (z, X_b - z)
    A2: a = (X_a, 0),     b = (z, X_b - z)
    B1: a = (z, X_a - z), b = (0, X_b)
    B2: a = (z, X_a - z), b = (X_b, 0)

With h = (h_1, h_2) the pinned player's holdings and X the free
player's fleet, one slope serves all four families: the free player's
region-1 marginal payoff less its region-2 one,

    s(z) = bm_1 (h_1 + e_1) / (h_1 + z + e_1)^2
           - bm_2 (h_2 + e_2) / (h_2 + X - z + e_2)^2 + bc_2 - bc_1.

It is strictly decreasing in z, so the free player's best reply z*
follows from its signs at z = 0 and z = X or from its root. A family is
an equilibrium exactly when the pinned player's multiplier on its empty
region comes out nonnegative; that check is the certification below.

Solving does not enumerate the families, and this module imports no
solver: experiments.solve_two_region is solve_spec behind a region-count
check, and the enumeration here is the independent route the tests and
the acceptance gate compare it with.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError
from .game import GameSpec, JointStrategy, joint_from_arrays, opponent, raw_utility_gradient
from .result import FAMILIES

#: Certification accepts nu down to -CERT_RTOL * (1 + the summed |gradient| of the
#: pinned player).
CERT_RTOL = 1e-9

#: Strategies closer than this (relative to 1 + total fleet) are one candidate.
DEDUPE_RTOL = 1e-7


def _family(spec: GameSpec, family: str) -> tuple[str, tuple[float, float], float]:
    """The pinned player, its holdings (region 1, region 2) and the free player's fleet."""
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
    if spec.m != 2:
        raise ShapeError(f"boundary analysis needs exactly two regions, spec has {spec.m}")
    pinned = "a" if family.startswith("A") else "b"
    fleet = spec.fleet_of(pinned)
    held = (0.0, fleet) if family.endswith("1") else (fleet, 0.0)
    return pinned, held, spec.fleet_of(opponent(pinned))


def _market_terms(spec: GameSpec, held, free: float, z: float) -> tuple[float, float]:
    """The beta_m terms of the free player's marginal payoff in regions 1 and 2,
    with z of its fleet free in region 1 and the pinned player holding held."""
    r1, r2 = spec.regions
    return (r1.beta_m * (held[0] + r1.epsilon) / (held[0] + z + r1.epsilon) ** 2,
            r2.beta_m * (held[1] + r2.epsilon) / (held[1] + free - z + r2.epsilon) ** 2)


def _slope(spec: GameSpec, held, free: float, z: float) -> float:
    """The free player's region-1 marginal payoff less its region-2 one, with z
    of its fleet free in region 1 and the pinned player holding held."""
    r1, r2 = spec.regions
    gain_1, gain_2 = _market_terms(spec, held, free, z)
    return gain_1 - gain_2 + r2.beta_c - r1.beta_c


def pinned_best_response(spec: GameSpec, family: str) -> float:
    """Best region-1 mass z* of the free player within one family: an end of
    its segment when the slope keeps one sign there, else the slope's root
    by bisection.

    The root's residual may reach the slope's drop across the final
    bracket, since the slope falls strictly in z, plus 1e-10 of the
    slope's terms at the root for rounding; a larger one raises
    NumericalError."""
    _, held, free = _family(spec, family)
    at_hi = _slope(spec, held, free, free)
    if at_hi >= 0.0:
        return free
    at_lo = _slope(spec, held, free, 0.0)
    if at_lo <= 0.0:
        return 0.0
    lo, hi = 0.0, free
    width_tol = 1e-15 * max(1.0, free)
    for _ in range(200):
        if hi - lo <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        at_mid = _slope(spec, held, free, mid)
        if at_mid > 0.0:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    z = 0.5 * (lo + hi)
    residual = _slope(spec, held, free, z)
    r1, r2 = spec.regions
    scale = sum(_market_terms(spec, held, free, z)) + r1.beta_c + r2.beta_c
    if abs(residual) > 1e-10 * scale + (at_lo - at_hi):
        raise NumericalError(f"pinned best-response root residual {residual!r} too large")
    return z


def family_strategy(spec: GameSpec, family: str, z: float) -> JointStrategy:
    """Joint strategy of a family at free-player mass z."""
    pinned, held, free = _family(spec, family)
    z = float(z)
    if not 0.0 <= z <= free:
        raise ValidationError(f"z={z!r} is outside [0, {free}]")
    moving = [z, free - z]
    if pinned == "a":
        return joint_from_arrays(held, moving)
    return joint_from_arrays(moving, held)


@dataclass(frozen=True)
class BoundaryCandidate:
    """One family's best reply and its certification verdict.

    slope_upper and slope_lower are the free player's slope at the ends of
    its segment, z = 0 and z = its fleet; nu_check is the pinned player's
    multiplier on its empty region, nonnegative exactly when the candidate
    is an equilibrium.
    """

    family: str
    z_star: float
    slope_upper: float
    slope_lower: float
    nu_check: float
    certified: bool
    strategy: JointStrategy


def certify(spec: GameSpec, family: str, z_star: float) -> BoundaryCandidate:
    """Certify a family at free-player mass z_star.

    nu_check is the pinned player's payoff gradient in its full region
    minus that in its empty region, its multiplier on the empty region.
    A point where the free player has left the pinned player's full
    region puts the two players alone in opposite regions; such a point
    is never an equilibrium and is rejected outright, though its
    nu_check is still reported.
    """
    pinned, held, free = _family(spec, family)
    z = float(z_star)
    if not 0.0 <= z <= free:
        raise ValidationError(f"z_star={z!r} is outside [0, {free}]")
    strategy = family_strategy(spec, family, z)
    own, rival = strategy.of(pinned).values, strategy.of(opponent(pinned)).values
    full = 1 if family.endswith("1") else 0
    grad = raw_utility_gradient(spec, own, rival)
    nu = float(grad[full] - grad[1 - full])
    tol = CERT_RTOL * (1.0 + float(np.abs(grad).sum()))
    return BoundaryCandidate(
        family=family,
        z_star=z,
        slope_upper=_slope(spec, held, free, 0.0),
        slope_lower=_slope(spec, held, free, free),
        nu_check=nu,
        certified=bool(rival[full] > 0.0 and nu >= -tol),
        strategy=strategy,
    )


def boundary_candidate(spec: GameSpec, family: str) -> BoundaryCandidate:
    """Best reply and certification of one family."""
    return certify(spec, family, pinned_best_response(spec, family))


def enumerate_candidates(spec: GameSpec) -> tuple[BoundaryCandidate, ...]:
    """All four family candidates, in the order A1, A2, B1, B2."""
    return tuple(boundary_candidate(spec, family) for family in FAMILIES)


def _joint_as_vector(strategy: JointStrategy) -> np.ndarray:
    return np.concatenate([strategy.alloc_a.values, strategy.alloc_b.values])


def _distinct_certified(spec: GameSpec, candidates) -> list[BoundaryCandidate]:
    """Certified candidates with coinciding strategies collapsed to the first."""
    tol = DEDUPE_RTOL * (1.0 + spec.fleet_a + spec.fleet_b)
    distinct: list[BoundaryCandidate] = []
    for cand in candidates:
        if not cand.certified:
            continue
        vec = _joint_as_vector(cand.strategy)
        if all(
            np.abs(vec - _joint_as_vector(kept.strategy)).max() > tol for kept in distinct
        ):
            distinct.append(cand)
    return distinct

