"""Output checks computed apart from the program under test.

Every check here works from the game's defining formulas with plain
numpy: the payoff gradient, the interior mass balance, the closed-form
collapse condition and the grid payoffs. None of them calls into
fleetcontest, so a fault in the solver cannot hide in its own check.
Each check raises CheckFailed with a message; returning means it passed.
"""

import numpy as np

#: Components above this share of their owner's fleet count as occupied.
SUPPORT_RTOL = 1e-6
#: Gradient agreement, relative to the largest marginal benefit in the spec.
GRAD_RTOL = 1e-6
#: Fleet-sum agreement, relative to the fleet.
SUM_RTOL = 1e-9
#: Payoff agreement, relative to the payoff scale.
PAYOFF_RTOL = 1e-9

BOUNDARY_PATTERNS = {
    # tag: (player, region index that must be empty)
    "A1": ("a", 0),
    "A2": ("a", 1),
    "B1": ("b", 0),
    "B2": ("b", 1),
}


class CheckFailed(AssertionError):
    """An output of the program contradicts an independent check."""


class Game:
    """Plain arrays of one game: beta_m, beta_c, eps and both fleets."""

    def __init__(self, beta_m, beta_c, eps, fleet_a, fleet_b):
        self.beta_m = np.asarray(beta_m, dtype=float)
        self.beta_c = np.asarray(beta_c, dtype=float)
        self.eps = np.asarray(eps, dtype=float)
        self.fleet = {"a": float(fleet_a), "b": float(fleet_b)}

    @classmethod
    def of(cls, spec):
        """Copy the numbers out of a GameSpec."""
        return cls(
            [r.beta_m for r in spec.regions],
            [r.beta_c for r in spec.regions],
            [r.epsilon for r in spec.regions],
            spec.fleet_a,
            spec.fleet_b,
        )

    def scaled(self, factor):
        """Unit-rescaled copy: beta_m, eps and both fleets times factor."""
        return Game(self.beta_m * factor, self.beta_c, self.eps * factor,
                    self.fleet["a"] * factor, self.fleet["b"] * factor)

    @property
    def grad_scale(self):
        return float(np.max(self.beta_m / self.eps + self.beta_c))

    def gradient(self, own, rival):
        """d payoff / d own: beta_m (rival + eps) / (own + rival + eps)^2 - beta_c."""
        total = own + rival + self.eps
        return self.beta_m * (rival + self.eps) / total**2 - self.beta_c

    def payoff(self, own, rival):
        return float(np.sum(own * (self.beta_m / (own + rival + self.eps) - self.beta_c)))


def _fail(message):
    raise CheckFailed(message)


def check_equilibrium(game, x_a, x_b, location=None):
    """Feasibility, KKT by the gradient formula, and the location tag.

    On each player's support the gradients must agree, and off it they
    may be no higher. A result tagged "interior" must have every
    component positive and equal gradients in every region; a family tag
    must leave its pinned player's named region empty; "boundary" needs
    at least one empty component.
    """
    x = {"a": np.asarray(x_a, dtype=float), "b": np.asarray(x_b, dtype=float)}
    tol = GRAD_RTOL * game.grad_scale
    occupied = {}
    for player, rival in (("a", "b"), ("b", "a")):
        own, fleet = x[player], game.fleet[player]
        if own.shape != game.eps.shape:
            _fail(f"{player}: {own.size} components for {game.eps.size} regions")
        if own.min() < -SUM_RTOL * fleet:
            _fail(f"{player}: negative component {own.min():.6g}")
        if abs(own.sum() - fleet) > SUM_RTOL * fleet:
            _fail(f"{player}: sums to {own.sum():.17g}, fleet {fleet:.17g}")
        grad = game.gradient(own, x[rival])
        support = own > SUPPORT_RTOL * fleet
        if not support.any():
            _fail(f"{player}: empty support")
        level = grad[support].max()
        if level - grad[support].min() > tol:
            _fail(f"{player}: gradients on the support spread by "
                  f"{level - grad[support].min():.3e} > {tol:.3e}")
        if grad.max() - level > tol:
            _fail(f"{player}: gradient off the support exceeds the level by "
                  f"{grad.max() - level:.3e} > {tol:.3e}")
        occupied[player] = support
    if location is None:
        return
    if location == "interior":
        # Components may be tiny near a transition; equal gradients decide.
        for player, rival in (("a", "b"), ("b", "a")):
            grad = game.gradient(x[player], x[rival])
            if x[player].min() <= 0.0 or np.ptp(grad) > tol:
                _fail(f"tagged interior but {player} has components "
                      f"{x[player].tolist()} and gradient spread {np.ptp(grad):.3e}")
    elif location in BOUNDARY_PATTERNS:
        player, region = BOUNDARY_PATTERNS[location]
        if occupied[player][region]:
            _fail(f"tagged {location} but {player} occupies region {region + 1}")
    elif location == "boundary":
        if occupied["a"].all() and occupied["b"].all():
            _fail("tagged boundary but every component is occupied")
    else:
        _fail(f"unknown location tag {location!r}")


def check_duals(game, x_a, x_b, lambda_a, lambda_b, nu_a, nu_b):
    """Stationarity gradient + lambda + nu = 0, nu >= 0, nu * x = 0."""
    x = {"a": np.asarray(x_a, dtype=float), "b": np.asarray(x_b, dtype=float)}
    lam = {"a": lambda_a, "b": lambda_b}
    nu = {"a": np.asarray(nu_a, dtype=float), "b": np.asarray(nu_b, dtype=float)}
    tol = GRAD_RTOL * game.grad_scale
    for player, rival in (("a", "b"), ("b", "a")):
        stationarity = game.gradient(x[player], x[rival]) + lam[player] + nu[player]
        if np.abs(stationarity).max() > tol:
            _fail(f"{player}: stationarity violated by {np.abs(stationarity).max():.3e}")
        if nu[player].min() < 0:
            _fail(f"{player}: negative nu {nu[player].min():.3e}")
        slack = np.abs(nu[player] * x[player]).max()
        if slack > tol * game.fleet[player]:
            _fail(f"{player}: complementarity violated by {slack:.3e}")


def check_payoffs(game, x_a, x_b, u_a, u_b):
    """Reported payoffs equal the payoff formula at the allocation."""
    for player, own, rival, got in (("a", x_a, x_b, u_a), ("b", x_b, x_a, u_b)):
        want = game.payoff(np.asarray(own, float), np.asarray(rival, float))
        if abs(got - want) > PAYOFF_RTOL * (abs(want) + game.grad_scale * game.fleet[player]):
            _fail(f"{player}: reported payoff {got!r}, formula gives {want!r}")


def interior_point(game):
    """Interior equilibrium candidate from the paper's mass balance.

    At an interior point each region's mass T = x_a + x_b + eps solves
    beta_m (T + eps) / T^2 = 2 beta_c - t for the multiplier sum t, and
    the masses add up to both fleets plus all offsets. Bisection on t,
    then each player's allocation follows from its own gradient level.
    Returns (x_a, x_b); components may be negative when the equilibrium
    is not interior.
    """
    bm, bc, eps = game.beta_m, game.beta_c, game.eps
    mass = game.fleet["a"] + game.fleet["b"] + eps.sum()

    def masses(t):
        gap = 2.0 * bc - t
        return (bm + np.sqrt(bm * bm + 4.0 * bm * eps * gap)) / (2.0 * gap)

    pole = float((2.0 * bc).min())
    hi = pole - 1e-12 * max(1.0, abs(pole))
    width = max(1.0, abs(pole))
    lo = pole - width
    while masses(lo).sum() > mass:
        width *= 2.0
        lo = pole - width
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if masses(mid).sum() > mass:
            hi = mid
        else:
            lo = mid
    total = masses(0.5 * (lo + hi))
    weight = total * total / bm
    # x_rival + eps = (beta_c - lambda_own) T^2 / beta_m; the fleet sums fix lambda.
    lam_b = (float((bc * weight).sum()) - eps.sum() - game.fleet["a"]) / weight.sum()
    lam_a = (float((bc * weight).sum()) - eps.sum() - game.fleet["b"]) / weight.sum()
    return weight * (bc - lam_b) - eps, weight * (bc - lam_a) - eps


def is_interior(game):
    """True when the interior candidate has every component positive."""
    x_a, x_b = interior_point(game)
    return bool(x_a.min() > 0.0 and x_b.min() > 0.0)


def alpha_crit(bm, bc1, e, fleet_a, fleet_b, bc2_per_alpha):
    """Closed-form collapse scale of the two-region scenario.

    Both fleets sit in region 1 exactly when
    beta_m2/eps2 - beta_c2(alpha) <= min over players of
    beta_m1 (X_rival + eps1) / (X_a + X_b + eps1)^2 - beta_c1,
    with beta_c2 = bc2_per_alpha * alpha.
    """
    total = fleet_a + fleet_b + e[0]
    rhs = min(bm[0] * (fleet_b + e[0]), bm[0] * (fleet_a + e[0])) / total**2 - bc1
    return (bm[1] / e[1] - rhs) / bc2_per_alpha


def check_alpha_crit(found, expected, step):
    if found is None or not abs(found - expected) <= step / 100.0:
        _fail(f"detect_alpha_crit returned {found!r}, closed form {expected!r}, "
              f"allowed {step / 100.0:.3g}")


def check_optimal_fleet(payoff_b, found, step):
    """b's payoff at the returned size is no lower than one grid step away."""
    here = payoff_b(found)
    for other in (found - step, found + step):
        there = payoff_b(other)
        if there > here + PAYOFF_RTOL * abs(here):
            _fail(f"payoff {there!r} at {other!r} beats {here!r} at {found!r}")


def grid_regret(game, n_a, n_b, i_a, i_b):
    """Larger unilateral grid regret of cell (i_a, i_b), from its row and column.

    Player a moves along its own axis with b fixed at i_b, and b along
    its axis with a fixed at i_a. Same payoff arithmetic as the scan:
    own * (beta_m / total - beta_c), summed over the two regions.
    """
    bm1, bm2 = game.beta_m
    bc1, bc2 = game.beta_c
    e1, e2 = game.eps
    xa, xb = game.fleet["a"], game.fleet["b"]
    za = np.arange(n_a + 1) * (xa / n_a)
    zb = np.arange(n_b + 1) * (xb / n_b)

    def pay(own1, own2, riv1, riv2):
        g1 = bm1 / ((own1 + riv1) + e1) - bc1
        g2 = bm2 / ((own2 + riv2) + e2) - bc2
        return own1 * g1 + own2 * g2

    zb_fixed, za_fixed = zb[i_b], za[i_a]
    row = pay(za, xa - za, zb_fixed, xb - zb_fixed)
    col = pay(zb, xb - zb, za_fixed, xa - za_fixed)
    return max(row.max() - row[i_a], col.max() - col[i_b])


def check_grid(game, n_a, n_b, i_a, i_b, eps_ne, z_a, z_b):
    """The oracle's cell has the regret it reports, and the solver's cell no lower.

    z_a and z_b are the solver's region-1 allocations; the cell nearest
    them must not beat the oracle's minimum regret.
    """
    tol = PAYOFF_RTOL * (game.grad_scale * (game.fleet["a"] + game.fleet["b"]))
    regret = grid_regret(game, n_a, n_b, i_a, i_b)
    if abs(regret - eps_ne) > tol:
        _fail(f"cell ({i_a}, {i_b}) has regret {regret!r}, oracle reports {eps_ne!r}")
    near_a = int(round(z_a / (game.fleet["a"] / n_a)))
    near_b = int(round(z_b / (game.fleet["b"] / n_b)))
    near = grid_regret(game, n_a, n_b, near_a, near_b)
    if near < eps_ne - tol:
        _fail(f"cell ({near_a}, {near_b}) nearest the solver has regret {near!r} "
              f"below the oracle's {eps_ne!r}")


def check_scaled(base_x, scaled_x, factor):
    """A rescaled copy's equilibrium is the base equilibrium times factor."""
    base = np.asarray(base_x, dtype=float) * factor
    got = np.asarray(scaled_x, dtype=float)
    if np.abs(got - base).max() > 1e-7 * max(1.0, np.abs(base).max()):
        _fail(f"rescaled equilibrium {got.tolist()} is not {factor:g} x {base_x}")
