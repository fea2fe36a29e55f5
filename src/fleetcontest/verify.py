"""Independent checks for candidate equilibria.

Everything here is built from primitives (utilities, gradients, scalar
bisection, grid scans) rather than from the closed-form solvers, so the
two routes can cross-check each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import two_region_scan
from .errors import (
    GridSizeError,
    InconsistencyError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from .game import (
    SUPPORT_RTOL,
    Allocation,
    DualCertificate,
    GameSpec,
    JointStrategy,
    _require_feasible,
    _require_nonnegative,
    empty_components,
    is_feasible,
    joint_from_arrays,
    opponent,
    raw_utility,
    raw_utility_gradient,
)
from .result import EquilibriumResult, location_tags

#: Relative (to the player's fleet) tolerance of the best-response fleet sum
#: before the exact rescale.
BR_SUM_RTOL = 1e-9

#: Per-player cell cap and joint point cap for the grid oracle.
GRID_MAX_CELLS = 100_000
GRID_MAX_POINTS = 250_000_000


def _water_fill(spec: GameSpec, y: np.ndarray, target: float) -> np.ndarray:
    """Maximize the contest payoff over x >= 0 with components summing to target.

    y holds the rival-plus-epsilon masses. Each positive component obeys
    x = sqrt(beta_m * y / (cost + nu)) - y for a common level nu; the
    charging costs are shifted by their minimum, so nu is the cheapest
    region's price and cancels against no large cost. At beta_m * y /
    (y + target)**2 (the cheapest region's) that region alone holds the
    target, and at max(beta_m / y - cost) no region holds anything; log
    nu is bisected between the two down to adjacent doubles, and the
    positive part rescaled to an exact sum. A sum still off by more than
    BR_SUM_RTOL raises NumericalError: a target far below a held y lets
    sqrt(.) - y cancel.
    """
    bm = spec.beta_m
    cheapest = int(spec.beta_c.argmin())
    cost = spec.beta_c - spec.beta_c[cheapest]

    def filled(nu: float) -> np.ndarray:
        return np.maximum(0.0, np.sqrt(bm * y / (cost + nu)) - y)

    lo = float(bm[cheapest] * y[cheapest] / (y[cheapest] + target) ** 2)
    hi = float((bm / y - cost).max())
    # filled(lo) sums to at least target and filled(hi) to zero.
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if filled(mid).sum() > target:
            lo = mid
        else:
            hi = mid
    x = filled(lo)
    total = float(x.sum())
    if not abs(total - target) <= BR_SUM_RTOL * target:
        raise NumericalError("best-response bisection missed its fleet-sum tolerance")
    return x * (target / total)


def best_response(spec: GameSpec, player: str, rival: Allocation) -> Allocation:
    """Optimal feasible reply to a fixed rival allocation, by water filling
    (_water_fill); NumericalError when the fill misses its fleet-sum tolerance."""
    if rival.owner != opponent(player):
        raise ValidationError(
            f"rival allocation owner {rival.owner!r} does not oppose player {player!r}"
        )
    if not is_feasible(spec, rival):
        raise ValidationError("rival allocation is infeasible")
    return Allocation(_water_fill(spec, rival.values + spec.eps, spec.fleet_of(player)), player)


def ne_residual(spec: GameSpec, joint: JointStrategy) -> float:
    """Largest unilateral payoff improvement available to either player.

    Each reply redistributes the mass the player actually deployed (its
    component sum) rather than the nominal fleet, so a sum sitting at the
    edge of the feasibility tolerance is not charged the water level
    times the sum slack.
    """
    _require_feasible(spec, joint)
    worst = -math.inf
    for player in ("a", "b"):
        own = joint.of(player).values
        rival = joint.of(opponent(player))
        current = raw_utility(spec, own, rival.values)
        reply = _water_fill(spec, rival.values + spec.eps, float(own.sum()))
        worst = max(worst, raw_utility(spec, reply, rival.values) - current)
    return worst


def kkt_residual(spec: GameSpec, joint: JointStrategy, duals: DualCertificate) -> float:
    """Largest absolute violation of the stationarity and complementarity system.

    Stationarity reads gradient + lambda + nu = 0 per player and region;
    the returned value also covers primal feasibility, nu >= 0, and the
    complementary slackness products.
    """
    _require_feasible(spec, joint)
    if duals.nu_a.size != spec.m or duals.nu_b.size != spec.m:
        raise ValidationError("dual certificate region count does not match the spec")
    x = np.array([joint.alloc_a.values, joint.alloc_b.values])
    nu = np.array([duals.nu_a, duals.nu_b])
    lambdas = np.array([[duals.lambda_a], [duals.lambda_b]])
    stationarity = raw_utility_gradient(spec, x, x[::-1]) + lambdas + nu
    fleet_gap = x.sum(axis=1) - [spec.fleet_a, spec.fleet_b]
    return max(0.0, float(np.abs(stationarity).max()), float(np.abs(fleet_gap).max()),
               -float(x.min()), -float(nu.min()), float(np.abs(nu * x).max()))


@dataclass(frozen=True)
class ConcavityCertificate:
    """Certificate that the joint payoff map is diagonally strictly concave.

    matrix is the symmetrized Jacobian of the stacked payoff gradients at
    the probed point; schur is its Schur complement in the a-block,
    computed by block algebra and cross-checked against the closed form.
    """

    block_aa: np.ndarray
    block_bb: np.ndarray
    block_cross: np.ndarray
    matrix: np.ndarray
    schur: np.ndarray
    max_eigenvalue: float
    negative_definite: bool


#: Relative agreement required between the two Schur complement routes.
SCHUR_RTOL = 1e-10


def concavity_certificate(spec: GameSpec, joint: JointStrategy) -> ConcavityCertificate:
    """Evaluate the concavity certificate at one nonnegative joint point."""
    _require_nonnegative(spec, joint)
    x_a = joint.alloc_a.values
    x_b = joint.alloc_b.values
    totals = x_a + x_b + spec.eps
    cubes = totals**3
    aa = -2.0 * spec.beta_m * (x_b + spec.eps) / cubes
    bb = -2.0 * spec.beta_m * (x_a + spec.eps) / cubes
    cross = -2.0 * spec.beta_m * spec.eps / cubes

    block_aa = np.diag(aa)
    block_bb = np.diag(bb)
    block_cross = np.diag(cross)
    matrix = np.block([[2.0 * block_aa, block_cross], [block_cross, 2.0 * block_bb]])

    schur = 2.0 * block_bb - 0.5 * block_cross @ np.linalg.inv(block_aa) @ block_cross
    closed = -spec.beta_m * (4.0 * x_a + spec.eps * (4.0 - spec.eps / (spec.eps + x_b))) / cubes
    gap = np.abs(np.diag(schur) - closed)
    allowed = SCHUR_RTOL * np.maximum(1.0, np.abs(closed))
    if np.any(gap > allowed):
        raise InconsistencyError("Schur complement routes disagree beyond tolerance")

    # The symmetrized Jacobian is permutation-similar to m independent
    # 2x2 blocks pairing rows j and m + j, so its spectrum is exact.
    p = 2.0 * aa
    q = 2.0 * bb
    eig_max = (p + q) / 2.0 + np.sqrt(((p - q) / 2.0) ** 2 + cross * cross)
    max_eigenvalue = float(eig_max.max())

    return ConcavityCertificate(
        block_aa=block_aa,
        block_bb=block_bb,
        block_cross=block_cross,
        matrix=matrix,
        schur=schur,
        max_eigenvalue=max_eigenvalue,
        negative_definite=bool(max_eigenvalue < 0.0),
    )


@dataclass(frozen=True)
class GridOracleResult:
    """Grid equilibrium with its resolution and discrete regret."""

    strategy: JointStrategy
    step: float
    eps_ne: float


def grid_equilibrium(spec: GameSpec, step: float) -> GridOracleResult:
    """Solver-free equilibrium oracle on a joint allocation grid.

    Two regions only. Each player's fleet is split into round(fleet/step)
    cells; the returned point minimizes the larger unilateral grid regret
    over the joint grid, ties resolving to the first point in row-major
    order of (a's index, b's index).
    """
    if spec.m != 2:
        raise ShapeError("grid oracle needs exactly two regions")
    step = float(step)
    if not math.isfinite(step) or step <= 0.0:
        raise ValidationError(f"step must be > 0, got {step!r}")
    cells_a = spec.fleet_a / step
    cells_b = spec.fleet_b / step
    # The same test as round(cells) > GRID_MAX_CELLS, but safe for an
    # infinite quotient, which round() cannot convert.
    if max(cells_a, cells_b) > GRID_MAX_CELLS + 0.5:
        raise GridSizeError(
            f"grid of {cells_a:.6g} x {cells_b:.6g} cells exceeds the per-player cap "
            f"{GRID_MAX_CELLS}"
        )
    n_a = max(1, round(cells_a))
    n_b = max(1, round(cells_b))
    if (n_a + 1) * (n_b + 1) > GRID_MAX_POINTS:
        raise GridSizeError(
            f"joint grid of {(n_a + 1) * (n_b + 1)} points exceeds the cap {GRID_MAX_POINTS}"
        )
    bm, bc, eps = spec.beta_m, spec.beta_c, spec.eps
    ia, ib, eps_ne = two_region_scan(
        bm[0], bm[1], bc[0], bc[1], eps[0], eps[1],
        spec.fleet_a, spec.fleet_b, n_a, n_b,
    )
    za = ia * (spec.fleet_a / n_a)
    zb = ib * (spec.fleet_b / n_b)
    strategy = joint_from_arrays(
        [za, spec.fleet_a - za], [zb, spec.fleet_b - zb]
    )
    return GridOracleResult(strategy=strategy, step=step, eps_ne=float(eps_ne))


def duals_from_gradients(spec: GameSpec, joint: JointStrategy) -> DualCertificate:
    """Multipliers read off the payoff gradients at a feasible point.

    lambda is minus the largest gradient component, nu the componentwise
    slack, which makes nu >= 0 by construction. A multiplier may only be
    positive where the allocation is zero, so slack on components above
    the support threshold is dropped; at a non-equilibrium point the
    dropped slack resurfaces as a stationarity violation, which is where
    it belongs.
    """
    _require_feasible(spec, joint)
    x = np.array([joint.alloc_a.values, joint.alloc_b.values])
    grad = raw_utility_gradient(spec, x, x[::-1])
    top = grad.max(axis=1)
    nu = top[:, None] - grad
    nu[~empty_components([spec.fleet_a, spec.fleet_b], x)] = 0.0
    return DualCertificate(*(-top).tolist(), *nu)


def _result(spec: GameSpec, strategy: JointStrategy, location: str, converged: bool = True,
            iterations: int = 0) -> EquilibriumResult:
    """The EquilibriumResult of iterated_best_response; rejects an infeasible
    strategy, and reads the duals off the payoff gradients."""
    duals = duals_from_gradients(spec, strategy)
    return EquilibriumResult(strategy, duals, location, spec, None, converged, iterations)


def iterated_best_response(
    spec: GameSpec,
    damping: float = 0.5,
    max_iters: int = 2000,
    tol: float | None = None,
) -> EquilibriumResult:
    """Damped alternating best responses from the uniform split.

    Stops when the largest componentwise movement in one round falls
    below tol (default SUPPORT_RTOL times the larger fleet). Hitting
    max_iters flags converged=False on the result instead of raising.
    Components at or below tol are then set to zero, so that a component
    the iteration could not tell from zero counts as empty, and each
    allocation is rescaled to its fleet. The location tag then follows
    the support, by the rule solve_spec uses (result.location_tags).
    """
    if not 0.0 < damping <= 1.0:
        raise ValidationError(f"damping must be in (0, 1], got {damping!r}")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if tol is None:
        tol = SUPPORT_RTOL * max(spec.fleet_a, spec.fleet_b)

    m = spec.m
    x_a = np.full(m, spec.fleet_a / m)
    x_b = np.full(m, spec.fleet_b / m)
    for iterations in range(1, max_iters + 1):
        new_a = (1.0 - damping) * x_a + damping * _water_fill(spec, x_b + spec.eps, spec.fleet_a)
        new_b = (1.0 - damping) * x_b + damping * _water_fill(spec, new_a + spec.eps, spec.fleet_b)
        movement = max(float(np.abs(new_a - x_a).max()), float(np.abs(new_b - x_b).max()))
        x_a, x_b = new_a, new_b
        if movement < tol:
            break

    for x, fleet in ((x_a, spec.fleet_a), (x_b, spec.fleet_b)):
        x[x <= tol] = 0.0
        x *= fleet / x.sum()
    return _result(
        spec,
        joint_from_arrays(x_a, x_b),
        location_tags(np.array([[spec.fleet_a, spec.fleet_b]]), np.array([[x_a, x_b]]))[0],
        converged=movement < tol,
        iterations=iterations,
    )
