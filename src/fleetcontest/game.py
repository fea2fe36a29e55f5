"""Domain model for the two-company fleet allocation contest.

A game instance has m regions. Each region holds a market volume beta_m
(requests times profit per served request), a per-vehicle charging cost
beta_c (energy price times charging demand), and an abandonment offset
epsilon that keeps the contest denominator positive. Each company splits
a fixed fleet across the regions; its payoff in a region is the share
own / (own + rival + epsilon) of the market volume minus charging costs.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, ValidationError

PLAYERS = ("a", "b")

#: Tolerance on the fleet-sum equality of a feasible allocation, relative to
#: the owner's fleet.
FEASIBILITY_RTOL = 1e-11

#: Components at or below this fraction of the owner's fleet are empty.
SUPPORT_RTOL = 1e-9


def opponent(player: str) -> str:
    """Return the other player's tag."""
    if player == "a":
        return "b"
    if player == "b":
        return "a"
    raise ValidationError(f"unknown player tag {player!r}")


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class RegionParams:
    """Per-region economics.

    beta_m: total market profit at stake in the region, currency units.
    beta_c: charging cost per allocated vehicle, currency units.
    epsilon: abandonment offset in vehicle units, strictly positive.
    """

    beta_m: float
    beta_c: float
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "beta_m", _check_finite("beta_m", self.beta_m))
        object.__setattr__(self, "beta_c", _check_finite("beta_c", self.beta_c))
        object.__setattr__(self, "epsilon", _check_finite("epsilon", self.epsilon))
        if self.beta_m <= 0:
            raise ValidationError(f"beta_m must be > 0, got {self.beta_m}")
        if self.beta_c < 0:
            raise ValidationError(f"beta_c must be >= 0, got {self.beta_c}")
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")


def region_from_raw(
    requests: float,
    profit_per_request: float,
    energy_price: float,
    charging_demand: float,
    epsilon: float,
) -> RegionParams:
    """Build RegionParams from raw market data.

    beta_m = requests * profit_per_request and beta_c = energy_price *
    charging_demand. Requests, profit and epsilon must be positive; the
    cost product must come out nonnegative.
    """
    requests = _check_finite("requests", requests)
    profit_per_request = _check_finite("profit_per_request", profit_per_request)
    energy_price = _check_finite("energy_price", energy_price)
    charging_demand = _check_finite("charging_demand", charging_demand)
    if requests <= 0:
        raise ValidationError(f"requests must be > 0, got {requests}")
    if profit_per_request <= 0:
        raise ValidationError(f"profit_per_request must be > 0, got {profit_per_request}")
    return RegionParams(
        beta_m=requests * profit_per_request,
        beta_c=energy_price * charging_demand,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class GameSpec:
    """A complete game instance: regions plus both fleet sizes."""

    regions: tuple[RegionParams, ...]
    fleet_a: float
    fleet_b: float

    def __post_init__(self):
        regions = tuple(self.regions)
        if not regions:
            raise ValidationError("a game needs at least one region")
        for r in regions:
            if not isinstance(r, RegionParams):
                raise ValidationError(f"regions must be RegionParams, got {type(r).__name__}")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "fleet_a", _check_finite("fleet_a", self.fleet_a))
        object.__setattr__(self, "fleet_b", _check_finite("fleet_b", self.fleet_b))
        if self.fleet_a <= 0 or self.fleet_b <= 0:
            raise ValidationError(
                f"fleet sizes must be > 0, got fleet_a={self.fleet_a}, fleet_b={self.fleet_b}"
            )

    @property
    def m(self) -> int:
        return len(self.regions)

    @cached_property
    def beta_m(self) -> np.ndarray:
        out = np.array([r.beta_m for r in self.regions])
        out.setflags(write=False)
        return out

    @cached_property
    def beta_c(self) -> np.ndarray:
        out = np.array([r.beta_c for r in self.regions])
        out.setflags(write=False)
        return out

    @cached_property
    def eps(self) -> np.ndarray:
        out = np.array([r.epsilon for r in self.regions])
        out.setflags(write=False)
        return out

    def fleet_of(self, player: str) -> float:
        if player == "a":
            return self.fleet_a
        if player == "b":
            return self.fleet_b
        raise ValidationError(f"unknown player tag {player!r}")

    def swapped(self) -> "GameSpec":
        """Same regions with the two fleet sizes exchanged."""
        return GameSpec(regions=self.regions, fleet_a=self.fleet_b, fleet_b=self.fleet_a)


@dataclass(frozen=True)
class Allocation:
    """One player's split of its fleet across regions.

    The constructor only checks shape and finiteness; nonnegativity and
    the fleet-sum equality are feasibility questions answered against a
    GameSpec by is_feasible.
    """

    values: np.ndarray
    owner: str

    def __post_init__(self):
        if self.owner not in PLAYERS:
            raise ValidationError(f"owner must be one of {PLAYERS}, got {self.owner!r}")
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size == 0:
            raise ValidationError("allocation must have at least one component")
        if not np.isfinite(values).all():
            raise ValidationError("allocation components must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class JointStrategy:
    """Both players' allocations over the same region set."""

    alloc_a: Allocation
    alloc_b: Allocation

    def __post_init__(self):
        if self.alloc_a.owner != "a" or self.alloc_b.owner != "b":
            raise ValidationError("joint strategy needs alloc_a owned by 'a' and alloc_b by 'b'")
        if self.alloc_a.values.shape != self.alloc_b.values.shape:
            raise ValidationError("both allocations must cover the same number of regions")

    @property
    def m(self) -> int:
        return int(self.alloc_a.values.size)

    def of(self, player: str) -> Allocation:
        if player == "a":
            return self.alloc_a
        if player == "b":
            return self.alloc_b
        raise ValidationError(f"unknown player tag {player!r}")


def joint_from_arrays(x_a, x_b) -> JointStrategy:
    """Convenience constructor from two plain vectors."""
    return JointStrategy(Allocation(x_a, "a"), Allocation(x_b, "b"))


@dataclass(frozen=True)
class DualCertificate:
    """KKT multipliers for both players at a candidate equilibrium.

    lambda_a and lambda_b are the fleet-sum equality multipliers, nu_a and
    nu_b the nonnegativity multipliers (componentwise >= 0).
    """

    lambda_a: float
    lambda_b: float
    nu_a: np.ndarray
    nu_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambda_a", _check_finite("lambda_a", self.lambda_a))
        object.__setattr__(self, "lambda_b", _check_finite("lambda_b", self.lambda_b))
        for name in ("nu_a", "nu_b"):
            nu = np.array(getattr(self, name), dtype=float).reshape(-1)
            if not np.isfinite(nu).all():
                raise ValidationError(f"{name} must be finite")
            if (nu < 0).any():
                raise ValidationError(f"{name} must be componentwise >= 0")
            nu.setflags(write=False)
            object.__setattr__(self, name, nu)

    def nu_of(self, player: str) -> np.ndarray:
        return self.nu_a if player == "a" else self.nu_b

    def lambda_of(self, player: str) -> float:
        return self.lambda_a if player == "a" else self.lambda_b


class SpecStack(NamedTuple):
    """The parameters of N specs with one region count, one row per spec.

    beta_m, beta_c and eps are N x m, fleets is N x 2 (fleet_a, fleet_b).
    Every array is C-contiguous, so a sum over a row adds in the same
    order as the sum over the spec's own vector and gives the same bits.
    """

    beta_m: np.ndarray
    beta_c: np.ndarray
    eps: np.ndarray
    fleets: np.ndarray

    def take(self, rows) -> "SpecStack":
        """The stack of the given rows, in their order."""
        return SpecStack(*(field[rows] for field in self))


def stack_specs(specs) -> SpecStack:
    """Stack a nonempty sequence of specs; ShapeError when region counts differ."""
    m = specs[0].m
    for spec in specs:
        if spec.m != m:
            raise ShapeError(f"a batch needs one region count, got {m} and {spec.m}")
    params = np.array([[(r.beta_m, r.beta_c, r.epsilon) for r in spec.regions] for spec in specs])
    beta_m, beta_c, eps = params.transpose(2, 0, 1).copy()
    fleets = np.array([(spec.fleet_a, spec.fleet_b) for spec in specs])
    return SpecStack(beta_m, beta_c, eps, fleets)


def is_feasible(spec: GameSpec, alloc: Allocation) -> bool:
    """True when alloc is nonnegative and sums to its owner's fleet.

    The sum may miss the fleet by FEASIBILITY_RTOL times the fleet.
    """
    if alloc.values.size != spec.m:
        raise ValidationError(
            f"allocation covers {alloc.values.size} regions, spec has {spec.m}"
        )
    if (alloc.values < 0).any():
        return False
    fleet = spec.fleet_of(alloc.owner)
    return abs(alloc.values.sum() - fleet) <= FEASIBILITY_RTOL * fleet


def _require_feasible(spec: GameSpec, joint: JointStrategy) -> None:
    """Raise ValidationError naming the first player whose allocation is infeasible."""
    for alloc in (joint.alloc_a, joint.alloc_b):
        if not is_feasible(spec, alloc):
            raise ValidationError(f"allocation of player {alloc.owner!r} is infeasible")


def _require_nonnegative(spec: GameSpec, joint: JointStrategy) -> None:
    """Raise ValidationError unless both allocations cover spec's regions and are >= 0."""
    for alloc in (joint.alloc_a, joint.alloc_b):
        if alloc.values.size != spec.m:
            raise ValidationError("allocation length does not match region count")
        if np.any(alloc.values < 0):
            raise ValidationError("allocations must be componentwise >= 0")


def market_share(region: RegionParams, own: float, rival: float) -> float:
    """Market profit captured in one region: beta_m * own / (own + rival + eps)."""
    own = _check_finite("own", own)
    rival = _check_finite("rival", rival)
    if own < 0 or rival < 0:
        raise ValidationError("allocations must be >= 0")
    return region.beta_m * own / (own + rival + region.epsilon)


def profit_loss(region: RegionParams, x_a: float, x_b: float) -> float:
    """Market profit abandoned in one region: beta_m * eps / (x_a + x_b + eps)."""
    x_a = _check_finite("x_a", x_a)
    x_b = _check_finite("x_b", x_b)
    if x_a < 0 or x_b < 0:
        raise ValidationError("allocations must be >= 0")
    return region.beta_m * region.epsilon / (x_a + x_b + region.epsilon)


def charging_cost(region: RegionParams, own: float) -> float:
    """Linear charging cost in one region: beta_c * own."""
    own = _check_finite("own", own)
    if own < 0:
        raise ValidationError("allocations must be >= 0")
    return region.beta_c * own


def raw_utility(spec: GameSpec, own: np.ndarray, rival: np.ndarray) -> float:
    """Total payoff for raw allocation vectors, no feasibility check.

    Defined for any nonnegative vectors so oracles can probe off-simplex
    points.
    """
    own = np.asarray(own, dtype=float)
    rival = np.asarray(rival, dtype=float)
    totals = own + rival + spec.eps
    return float(np.sum(own * (spec.beta_m / totals - spec.beta_c)))


def raw_utility_gradient(spec: GameSpec, own: np.ndarray, rival: np.ndarray) -> np.ndarray:
    """Gradient of raw_utility in the own allocation."""
    own = np.asarray(own, dtype=float)
    rival = np.asarray(rival, dtype=float)
    totals = own + rival + spec.eps
    return spec.beta_m * (rival + spec.eps) / totals**2 - spec.beta_c


def utility(spec: GameSpec, player: str, joint: JointStrategy) -> float:
    """Payoff of player at a feasible joint strategy.

    Raises ValidationError when either allocation is infeasible for spec.
    """
    _require_feasible(spec, joint)
    own = joint.of(player).values
    rival = joint.of(opponent(player)).values
    return raw_utility(spec, own, rival)


def stacked_utilities(stack: SpecStack, x: np.ndarray) -> np.ndarray:
    """Both players' payoffs at N joint strategies of the N stacked specs.

    x is N x 2 x m, player a's allocations in x[:, 0]; the result is N x 2.
    Each payoff is raw_utility's sum, row by row, to the same bits.
    """
    margin = stack.beta_m / (x[:, 0] + x[:, 1] + stack.eps) - stack.beta_c
    return (x * margin[:, None]).sum(axis=2)


def utility_gradient(spec: GameSpec, player: str, joint: JointStrategy) -> np.ndarray:
    """Gradient of player's payoff in its own allocation at joint.

    Only nonnegativity is required, not the fleet-sum equality, so the
    gradient can be probed off the simplex.
    """
    _require_nonnegative(spec, joint)
    own = joint.of(player).values
    rival = joint.of(opponent(player)).values
    return raw_utility_gradient(spec, own, rival)
