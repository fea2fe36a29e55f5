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
    DualCertificate,
    GameSpec,
    JointStrategy,
    _add,
    _divide,
    _floats,
    _payoff,
    _quiet,
    _require_feasible,
    _require_nonnegative,
    empty_components,
    joint_from_arrays,
    raw_utility_gradient,
)
from .result import EquilibriumResult, location_tags

#: Relative (to the player's fleet) tolerance of the best-response fleet sum
#: before the exact rescale.
BR_SUM_RTOL = 1e-9

#: Rounds after which iterated_best_response stops unconverged.
_IBR_MAX_ROUNDS = 2000

#: Per-player cell cap and joint point cap for the grid oracle.
GRID_MAX_CELLS = 100_000
GRID_MAX_POINTS = 250_000_000


#: Newton steps the water fill takes toward its level before it bisects.
_FILL_NEWTON_STEPS = 10

#: Relative offsets at which the water fill probes either side of a
#: converged Newton level: from a few ulps, fourfold up to about 4e-10.
_FILL_PROBES = tuple(4e-16 * 4.0**k for k in range(11))


def _filled(parts: list, nu: float) -> tuple[list, float]:
    """The water fill's holdings at level nu and their sum; parts holds each
    region's (beta_m * y, y, shifted cost)."""
    x = []
    for bmy, y, cost in parts:
        held = math.sqrt(_divide(bmy, cost + nu)) - y
        x.append(held if not held <= 0.0 else 0.0)  # As np.maximum(0.0, held): nan stays.
    return x, _add(x)


def _water_fill(spec: GameSpec, y: np.ndarray, target: float) -> np.ndarray:
    """Maximize the contest payoff over x >= 0 with components summing to target.

    y holds the rival-plus-epsilon masses, as an array or a list. Each
    positive component obeys x = sqrt(beta_m * y / (cost + nu)) - y for a
    common level nu; the charging costs are shifted by their minimum, so
    nu is the cheapest region's price and cancels against no large cost.
    At beta_m * y / (y + target)**2 (the cheapest region's) that region
    alone holds the target, and at max(beta_m / y - cost) no region holds
    anything; log nu is bisected between the two down to adjacent
    doubles, and the positive part rescaled to an exact sum. A sum still off by more than
    BR_SUM_RTOL raises NumericalError: a target far below a held y lets
    sqrt(.) - y cancel.

    The fill runs in Python floats, reading the parameters from
    spec.regions; only its result is an array. Each operation is the one
    numpy would make on the arrays, in the same order, and sums are
    game._add's, numpy's order; where Python would raise or differ, it
    does as numpy does: a zero divisor gives an inf or nan (game._divide),
    an overflowing square inf, max(0, .) and the maximum for hi keep a
    nan. So the fill has the bits of the same algorithm on arrays.

    The bisection evaluates only the midpoints whose side it does not
    already know, and returns the bits of one that evaluates them all.
    Its test, fill(nu) summing above target, is non-increasing in nu
    wherever the sum is not NaN: each step of the fill (cost + nu, beta_m
    * y over it, sqrt, - y, max(0, .)) is a correctly rounded operation
    monotone in nu, and _add adds the m terms in a fixed order, each
    addition monotone in both operands. Levels are positive, so a term is NaN
    only where an infinite beta_m * y meets an infinite cost + nu or an
    infinite y, and a term NaN at one level is NaN at every higher one. Hence a sum above target
    settles the test for every lower level, and a sum not above it that
    is not NaN settles it for every higher one. A NaN sum compares false
    with everything and sets no side. left is the largest evaluated
    level above target and right the smallest settled one not above it;
    a midpoint at or below left moves lo and one at or above right moves
    hi unevaluated.

    left and right come from Newton steps in u = nu**-0.5 started at lo.
    A held region's x + y = sqrt(beta_m * y / (cost + nu)) is linear in u
    at cost 0 and concave in u otherwise, and the fleet sum's u-derivative
    is nu**1.5 * sum((x + y) / (cost + nu)) over the held regions. An
    iterate outside (left, right) is replaced by their geometric mean.
    The steps stop when one moves nu by at most 1e-14 of it, or after
    _FILL_NEWTON_STEPS. Near the root the sum can equal target for a few
    ulps, so a converged level is then probed at nu * (1 -+ delta) for
    each delta in _FILL_PROBES until left and right lie within it. Every
    midpoint evaluated is one the plain bisection evaluates too, so a
    fill makes at most _FILL_NEWTON_STEPS + 2 * len(_FILL_PROBES) more
    evaluations than that bisection.
    """
    y = _floats(y)
    costs = [r.beta_c for r in spec.regions]
    cheapest = costs.index(min(costs))
    parts = [(r.beta_m * v, v, c - costs[cheapest]) for r, v, c in zip(spec.regions, y, costs)]
    try:
        square = (y[cheapest] + target) ** 2
    except OverflowError:
        square = math.inf
    lo = _divide(parts[cheapest][0], square)
    tops = [_divide(r.beta_m, v) - c for r, (_, v, c) in zip(spec.regions, parts)]
    hi = math.nan if any(map(math.isnan, tops)) else max(tops)
    # fill(lo) sums to at least target and fill(hi) to zero.
    left, right = lo, hi

    def settle(nu: float) -> tuple:
        """fill(nu) and its sum, recording nu as left or right by the bisection's test."""
        nonlocal left, right
        x, total = _filled(parts, nu)
        if total > target:
            if nu > left:
                left = nu
        elif total <= target and nu < right:
            right = nu
        return x, total

    if lo < math.sqrt(lo) * math.sqrt(hi) < hi:  # Else the bisection makes no step.
        nu = lo
        for _ in range(_FILL_NEWTON_STEPS):
            x, total = settle(nu)
            # u * dsum/du; nu > 0 here, so no divisor is zero.
            slope = nu * _add([(held + v) / (c + nu) for held, (_, v, c) in zip(x, parts)
                               if held > 0.0])
            ratio = 1.0 - (total - target) / slope if slope > 0.0 else math.nan  # u_new / u
            step = nu / (ratio * ratio) if ratio > 0.0 and ratio * ratio > 0.0 else math.nan
            # Tested before the bracket, which may have closed onto the root.
            if abs(step - nu) <= 1e-14 * nu:
                for delta in _FILL_PROBES:
                    below, beyond = step * (1.0 - delta), step * (1.0 + delta)
                    if left < below:
                        settle(below)
                    if right > beyond:
                        settle(beyond)
                    if left >= below and right <= beyond:
                        break
                break
            nu = step if left < step < right else math.sqrt(left) * math.sqrt(right)
    sqrt = math.sqrt  # Some 60 steps: most move lo or hi unevaluated.
    root_lo, root_hi = sqrt(lo), sqrt(hi)
    while True:
        mid = root_lo * root_hi
        if not lo < mid < hi:
            break
        if mid <= left or (mid < right and _filled(parts, mid)[1] > target):
            lo, root_lo = mid, sqrt(mid)
        else:
            hi, root_hi = mid, sqrt(mid)
    x, total = _filled(parts, lo)
    if not abs(total - target) <= BR_SUM_RTOL * target:
        raise NumericalError("best-response bisection missed its fleet-sum tolerance")
    scale = target / total
    return np.array([v * scale for v in x])


def ne_residual(spec: GameSpec, joint: JointStrategy) -> float:
    """Largest unilateral payoff improvement available to either player.

    Each reply redistributes the mass the player actually deployed (its
    component sum) rather than the nominal fleet, so a sum sitting at the
    edge of the feasibility tolerance is not charged the water level
    times the sum slack. Python floats throughout (_water_fill, and the
    payoffs by game._payoff, raw_utility's form on lists), so no numpy
    warning can arise.
    """
    _require_feasible(spec, joint)
    worst = -math.inf
    x_a, x_b = joint.alloc_a.values.tolist(), joint.alloc_b.values.tolist()
    for own, rival in ((x_a, x_b), (x_b, x_a)):
        current = _payoff(spec, own, rival)
        y = [v + r.epsilon for v, r in zip(rival, spec.regions)]
        reply = _water_fill(spec, y, _add(own))
        worst = max(worst, _payoff(spec, reply.tolist(), rival) - current)
    return worst


@_quiet
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

    matrix: np.ndarray
    schur: np.ndarray
    max_eigenvalue: float
    negative_definite: bool


#: Relative agreement required between the two Schur complement routes.
SCHUR_RTOL = 1e-10


@_quiet
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

    d_aa, d_bb, d_ab = np.diag(aa), np.diag(bb), np.diag(cross)
    matrix = np.block([[2.0 * d_aa, d_ab], [d_ab, 2.0 * d_bb]])

    schur = 2.0 * d_bb - 0.5 * d_ab @ np.linalg.inv(d_aa) @ d_ab
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


@_quiet
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
        raise ValidationError(f"step must be finite and > 0, got {step!r}")
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


@_quiet
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


def iterated_best_response(spec: GameSpec) -> EquilibriumResult:
    """Alternating best responses from the uniform split, each damped by half.

    Stops when the largest componentwise movement in one round falls
    below tol, SUPPORT_RTOL times the larger fleet. After
    _IBR_MAX_ROUNDS rounds it stops anyway and flags converged=False on
    the result instead of raising. Components at or below tol are then
    set to zero, so that a component the iteration could not tell from
    zero counts as empty, and each allocation is rescaled to its fleet.
    The location tag then follows the support, by the rule solve_spec
    uses (result.location_tags), and the duals are read off the payoff
    gradients (duals_from_gradients).
    """
    tol = SUPPORT_RTOL * max(spec.fleet_a, spec.fleet_b)
    m = spec.m
    x_a = np.full(m, spec.fleet_a / m)
    x_b = np.full(m, spec.fleet_b / m)
    for iterations in range(1, _IBR_MAX_ROUNDS + 1):
        new_a = 0.5 * x_a + 0.5 * _water_fill(spec, x_b + spec.eps, spec.fleet_a)
        new_b = 0.5 * x_b + 0.5 * _water_fill(spec, new_a + spec.eps, spec.fleet_b)
        movement = max(float(np.abs(new_a - x_a).max()), float(np.abs(new_b - x_b).max()))
        x_a, x_b = new_a, new_b
        if movement < tol:
            break

    for x, fleet in ((x_a, spec.fleet_a), (x_b, spec.fleet_b)):
        x[x <= tol] = 0.0
        x *= fleet / x.sum()
    strategy = joint_from_arrays(x_a, x_b)
    location = location_tags(np.array([[spec.fleet_a, spec.fleet_b]]), np.array([[x_a, x_b]]))[0]
    return EquilibriumResult(strategy, duals_from_gradients(spec, strategy), location, spec,
                             None, movement < tol, iterations)
