"""The paper's two-region boundary check, kept as an oracle.

When the interior candidate fails, a two-region equilibrium must sit in
one of four families, each pinning one player entirely into one region
while the other player splits z vehicles into region 1:

    A1: a = (0, X_a),     b = (z, X_b - z)
    A2: a = (X_a, 0),     b = (z, X_b - z)
    B1: a = (z, X_a - z), b = (0, X_b)
    B2: a = (z, X_a - z), b = (X_b, 0)

The free player's payoff slope along its segment is strictly decreasing,
so its best reply z* follows from the slope's endpoint signs or a scalar
root. A family is an equilibrium exactly when the pinned player's
multiplier on its empty region comes out nonnegative; that check is the
certification below. B families are A families with the players
swapped.

Solving does not enumerate the families, and this module imports no
solver: experiments.solve_two_region is solve_spec behind a region-count
check, and the enumeration here is the independent route the tests and
the acceptance gate compare it with.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError
from .game import GameSpec, JointStrategy, joint_from_arrays, opponent, raw_utility_gradient
from .result import FAMILIES

#: Certification accepts nu down to -CERT_RTOL * (1 + the summed |gradient| of the
#: pinned player).
CERT_RTOL = 1e-9

#: Strategies closer than this (relative to 1 + total fleet) are one candidate.
DEDUPE_RTOL = 1e-7


class _Params(NamedTuple):
    """Raw two-region parameters from the pinned player's viewpoint."""

    bm1: float
    bm2: float
    bc1: float
    bc2: float
    e1: float
    e2: float
    xa: float
    xb: float


def _params(spec: GameSpec) -> _Params:
    if spec.m != 2:
        raise ShapeError(f"boundary analysis needs exactly two regions, spec has {spec.m}")
    r1, r2 = spec.regions
    return _Params(
        bm1=r1.beta_m, bm2=r2.beta_m,
        bc1=r1.beta_c, bc2=r2.beta_c,
        e1=r1.epsilon, e2=r2.epsilon,
        xa=spec.fleet_a, xb=spec.fleet_b,
    )


def _slope_region1_empty(p: _Params, z: float) -> float:
    return (
        p.bm1 * p.e1 / (z + p.e1) ** 2
        - p.bm2 * (p.xa + p.e2) / (p.xa + p.xb - z + p.e2) ** 2
        + p.bc2
        - p.bc1
    )


def _slope_region2_empty(p: _Params, z: float) -> float:
    return (
        p.bm1 * (p.xa + p.e1) / (p.xa + z + p.e1) ** 2
        - p.bm2 * p.e2 / (p.xb - z + p.e2) ** 2
        + p.bc2
        - p.bc1
    )


def _endpoint_slopes(slope, p: _Params) -> tuple[float, float]:
    """A decreasing slope at z = 0 and z = xb: its upper and lower bound."""
    return slope(p, 0.0), slope(p, p.xb)


def _pinned_root(slope, p: _Params) -> float:
    """Root of a strictly decreasing slope over (0, xb), by bisection."""
    lo, hi = 0.0, p.xb
    width_tol = 1e-15 * max(1.0, p.xb)
    for _ in range(200):
        if hi - lo <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        if slope(p, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    residual = slope(p, z)
    if abs(residual) > 1e-10 * (p.bm1 + p.bm2):
        raise NumericalError(f"pinned best-response root residual {residual!r} too large")
    return z


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")


def _family_view(spec: GameSpec, family: str) -> _Params:
    """Parameters from the pinned player's viewpoint (B swaps the fleets)."""
    _check_family(family)
    return _params(spec if family.startswith("A") else spec.swapped())


def _family_slope(family: str):
    return _slope_region1_empty if family.endswith("1") else _slope_region2_empty


def pinned_best_response(spec: GameSpec, family: str) -> float:
    """Best region-1 mass z* of the free player within one family."""
    p = _family_view(spec, family)
    slope = _family_slope(family)
    upper, lower = _endpoint_slopes(slope, p)
    if lower >= 0.0:
        return p.xb
    if upper <= 0.0:
        return 0.0
    return _pinned_root(slope, p)


def family_strategy(spec: GameSpec, family: str, z: float) -> JointStrategy:
    """Joint strategy of a family at free-player mass z; a B family is the
    A family's layout with the players swapped."""
    _check_family(family)
    z = float(z)
    fleets = (spec.fleet_a, spec.fleet_b)
    pinned_fleet, free_fleet = fleets if family.startswith("A") else fleets[::-1]
    if not 0.0 <= z <= free_fleet:
        raise ValidationError(f"z={z!r} is outside [0, {free_fleet}]")
    pinned = [0.0, pinned_fleet] if family.endswith("1") else [pinned_fleet, 0.0]
    free = [z, free_fleet - z]
    if family.startswith("A"):
        return joint_from_arrays(pinned, free)
    return joint_from_arrays(free, pinned)


@dataclass(frozen=True)
class BoundaryCandidate:
    """One family's best reply and its certification verdict.

    slope_upper and slope_lower are the family's endpoint slopes from the
    pinned player's viewpoint; nu_check is the pinned player's multiplier
    on its empty region, nonnegative exactly when the candidate is an
    equilibrium.
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
    p = _family_view(spec, family)
    z = float(z_star)
    if not 0.0 <= z <= p.xb:
        raise ValidationError(f"z_star={z!r} is outside [0, {p.xb}]")
    strategy = family_strategy(spec, family, z)
    pinned = "a" if family.startswith("A") else "b"
    own, rival = strategy.of(pinned).values, strategy.of(opponent(pinned)).values
    full = 1 if family.endswith("1") else 0
    grad = raw_utility_gradient(spec, own, rival)
    nu = float(grad[full] - grad[1 - full])
    tol = CERT_RTOL * (1.0 + float(np.abs(grad).sum()))
    upper, lower = _endpoint_slopes(_family_slope(family), p)
    return BoundaryCandidate(
        family=family,
        z_star=z,
        slope_upper=upper,
        slope_lower=lower,
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

