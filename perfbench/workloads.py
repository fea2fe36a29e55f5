"""The three workloads: seeded inputs, the operations run on them, and their checks.

A workload is a fixed list of Op. Each Op has a timed run() that calls
the program and an untimed check(output) that raises CheckFailed when
the output is wrong. Inputs come only from the seed; the program sees
the generated parameters, never the seed.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import fleetcontest as fc
from checks import (
    CheckFailed,
    Game,
    alpha_crit,
    check_alpha_crit,
    check_duals,
    check_equilibrium,
    check_grid,
    check_optimal_fleet,
    check_payoffs,
    check_scaled,
    interior_point,
    is_interior,
)

#: Unit factor of the rescaled multiregion copies (beta_m, eps and fleets).
RESCALE = 1e5

#: Window centre for detect_optimal_fleet: the paper scenario's optimum sits
#: near 1754. Only the window placement uses it; the check does not.
OPTIMAL_FLEET_NEAR = 1754.0

#: Fixed four-region scenarios whose 1e5 copies run in every multiregion round.
RESCALED_ALPHAS = (4.0, 8.0, 12.0, 16.0, 20.0)

#: Operations of each casestudy kind per round. Rounds repeat the same
#: operations, so a run's sorted times form one cluster per operation.
#: With 25 a round, the 50th and 90th percentiles fall inside the 13th and
#: 23rd clusters; with 20 they fell on the edge between two operations,
#: and noise decided which one was reported.
CASESTUDY_PER_KIND = 5

#: verify configs per round with interior and with boundary-family equilibria.
VERIFY_INTERIOR = 20
VERIFY_BOUNDARY = 10

#: multiregion specs per round: seeded interior, seeded symmetric boundary,
#: and asymmetric boundary specs drawn from ASYMMETRIC_SEED in every run.
MULTIREGION_INTERIOR = 40
MULTIREGION_SYMMETRIC = 60
MULTIREGION_ASYMMETRIC = 60
ASYMMETRIC_SEED = 2024

#: Start of the message of an asymmetric spec whose empty components
#: stalled above 1e-9 of their owner's fleet (see asymmetric_game).
STALLED = "empty components stalled"

#: A 7-region spec where the best-response fallback tags a point "interior"
#: whose empty components stalled just above 1e-9 of the smaller fleet.
MISLABEL_REGIONS = (
    (79248.56, 50.38444, 64.81672), (26437.64, 53.81626, 201.4434),
    (15818.51, 6.124569, 66.74063), (13729.22, 22.05556, 315.1041),
    (38838.46, 6.802587, 153.9853), (42590.54, 27.44353, 263.6790),
    (76819.68, 45.11879, 223.6299),
)
MISLABEL_FLEETS = (380.8565, 2378.028)


@dataclass
class Op:
    """One timed operation and the check of its output.

    fault_type and fault_text describe a known program fault the op runs
    into every time. Any error counts in "failed"; one that does not
    match them also marks the run incorrect.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault_type: type | None = None
    fault_text: str = ""

    def is_known_fault(self, exc):
        return self.fault_type is not None and isinstance(exc, self.fault_type) \
            and self.fault_text in str(exc)


def _spec(game):
    regions = tuple(fc.RegionParams(float(bm), float(bc), float(e))
                    for bm, bc, e in zip(game.beta_m, game.beta_c, game.eps))
    return fc.GameSpec(regions, game.fleet["a"], game.fleet["b"])


def _xs(strategy):
    return strategy.alloc_a.values, strategy.alloc_b.values


def _check_result(game, result):
    x_a, x_b = _xs(result.strategy)
    check_equilibrium(game, x_a, x_b, result.location)
    d = result.duals
    check_duals(game, x_a, x_b, d.lambda_a, d.lambda_b, d.nu_a, d.nu_b)


def _check_records(records, game_of):
    for record in records:
        if record.error is not None:
            raise CheckFailed(f"record at {record.parameter!r} failed: {record.error}")
        game = game_of(record.parameter)
        x_a, x_b = _xs(record.strategy)
        check_equilibrium(game, x_a, x_b, record.location)
        check_payoffs(game, x_a, x_b, record.u_a, record.u_b)


# -- casestudy ------------------------------------------------------------------


def casestudy(rng):
    """The paper's case study, one public experiment call per operation.

    Each call covers a seeded window of about 100 equilibria.
    """
    four = Game.of(fc.four_region_spec(1.0))
    four_bc_slope = Game.of(fc.four_region_spec(2.0)).beta_c - four.beta_c
    two = Game.of(fc.two_region_spec(1.0))
    two_bc_slope = Game.of(fc.two_region_spec(2.0)).beta_c - two.beta_c
    fleet_game = Game.of(fc.two_region_spec(3.0))
    crit = alpha_crit(two.beta_m, two.beta_c[0], two.eps, two.fleet["a"], two.fleet["b"],
                      two_bc_slope[1])

    def four_game(alpha):
        base = four.beta_c - four_bc_slope
        return Game(four.beta_m, base + alpha * four_bc_slope, four.eps, 1000.0, 2000.0)

    def two_game(alpha):
        base = two.beta_c - two_bc_slope
        return Game(two.beta_m, base + alpha * two_bc_slope, two.eps, 1000.0, 2000.0)

    def fleet_b_game(fleet_b):
        return Game(fleet_game.beta_m, fleet_game.beta_c, fleet_game.eps, 1000.0, fleet_b)

    def payoff_b(fleet_b):
        game = fleet_b_game(fleet_b)
        x_a, x_b = interior_point(game)
        if min(x_a.min(), x_b.min()) <= 0.0:
            raise CheckFailed(f"fleet_b={fleet_b!r} is not interior; payoff check needs it")
        return game.payoff(x_b, x_a)

    ops = []
    for _ in range(CASESTUDY_PER_KIND):
        lo = rng.uniform(1.0, 10.0)
        alphas = np.linspace(lo, lo + rng.uniform(8.0, 10.0), 100)
        ops.append(Op("sweep_four", lambda a=alphas: fc.alpha_sweep("four", a),
                      lambda out: _check_records(out, four_game)))

        # Centred near where A2 points start (39.9), so about half are A2.
        lo = rng.uniform(34.5, 35.5)
        alphas = np.linspace(lo, lo + 10.0, 100)
        ops.append(Op("sweep_two", lambda a=alphas: fc.alpha_sweep("two", a),
                      lambda out: _check_records(out, two_game)))

        lo = rng.uniform(200.0, 1800.0)
        fleets = np.linspace(lo, lo + rng.uniform(1800.0, 2200.0), 100)
        ops.append(Op("fleet_sweep", lambda f=fleets: fc.fleet_sweep(f),
                      lambda out: _check_records(out, fleet_b_game)))

        lo = rng.uniform(37.0, 37.5)
        step = (crit - lo) / rng.uniform(88.0, 92.0)
        hi = min(50.0, crit + rng.uniform(1.0, 8.0))
        ops.append(Op("alpha_crit", lambda lo=lo, hi=hi, s=step: fc.detect_alpha_crit(lo, hi, s),
                      lambda out, s=step: check_alpha_crit(out, crit, s)))

        step = rng.uniform(0.8, 1.25)
        lo = OPTIMAL_FLEET_NEAR - step * rng.uniform(20.0, 60.0)
        hi = lo + 80.0 * step
        ops.append(Op("optimal_fleet",
                      lambda lo=lo, hi=hi, s=step: fc.detect_optimal_fleet(lo, hi, s),
                      lambda out, s=step: check_optimal_fleet(payoff_b, out, s)))
    rng.shuffle(ops)
    return ops


def casestudy_warmup():
    fc.alpha_sweep("four", [1.0, 10.0])
    fc.alpha_sweep("two", [30.0, 45.0])
    fc.fleet_sweep([1000.0, 2000.0])
    fc.detect_alpha_crit(39.0, 42.0, 1.0)
    fc.detect_optimal_fleet(1750.0, 1758.0, 4.0)


# -- verify -----------------------------------------------------------------------


def _config_text(game):
    lines = [f"fleet_a = {game.fleet['a']:.17g}", f"fleet_b = {game.fleet['b']:.17g}"]
    for bm, bc, e in zip(game.beta_m, game.beta_c, game.eps):
        lines.append(f"region beta_m={bm:.17g} beta_c={bc:.17g} epsilon={e:.17g}")
    return "\n".join(lines) + "\n"


def verify_steps(text, cells=2000):
    """The steps of `fleetcontest verify` on one config text.

    Parse, solve, feasibility, payoffs, gradients, KKT residual, the
    equilibrium residual and the grid oracle at step max(fleet)/cells.
    """
    spec = fc.parse_config(text)
    result = fc.solve_two_region(spec)
    strategy = result.strategy
    feasible = fc.is_feasible(spec, strategy.alloc_a) and fc.is_feasible(spec, strategy.alloc_b)
    u_a = fc.utility(spec, "a", strategy)
    u_b = fc.utility(spec, "b", strategy)
    grad_scale = 1.0
    for player in ("a", "b"):
        grad = fc.raw_utility_gradient(spec, strategy.of(player).values,
                                       strategy.of(fc.opponent(player)).values)
        grad_scale = max(grad_scale, float(np.abs(grad).max()))
    kkt = fc.kkt_residual(spec, strategy, result.duals)
    step = max(spec.fleet_a, spec.fleet_b) / cells
    oracle = fc.grid_equilibrium(spec, step)
    return spec, result, feasible, u_a, u_b, grad_scale, kkt, result.ne_residual, oracle


def _check_verify(game, out):
    spec, result, feasible, u_a, u_b, grad_scale, kkt, ne, oracle = out
    parsed = Game.of(spec)
    for name in ("beta_m", "beta_c", "eps"):
        if not np.array_equal(getattr(parsed, name), getattr(game, name)):
            raise CheckFailed(f"parse_config changed {name}")
    if parsed.fleet != game.fleet:
        raise CheckFailed("parse_config changed the fleets")
    if not feasible:
        raise CheckFailed("is_feasible rejects the solver's own equilibrium")
    _check_result(game, result)
    x_a, x_b = _xs(result.strategy)
    check_payoffs(game, x_a, x_b, u_a, u_b)
    if not kkt <= 1e-8 * grad_scale:
        raise CheckFailed(f"kkt_residual {kkt!r} above {1e-8 * grad_scale!r}")
    if not ne <= 1e-6 * (abs(u_a) + abs(u_b) + 1.0):
        raise CheckFailed(f"ne_residual {ne!r} too large")
    check_grid(game, *oracle_cell(game, oracle), oracle.eps_ne, x_a[0], x_b[0])


def oracle_cell(game, oracle):
    """(n_a, n_b, i_a, i_b): the oracle's cell counts and its returned cell."""
    n_a = max(1, round(game.fleet["a"] / oracle.step))
    n_b = max(1, round(game.fleet["b"] / oracle.step))
    o_a, o_b = _xs(oracle.strategy)
    return (n_a, n_b, int(round(o_a[0] / (game.fleet["a"] / n_a))),
            int(round(o_b[0] / (game.fleet["b"] / n_b))))


def _two_region_game(rng):
    """Parameters from the test box; the smaller fleet is 45-55% of the larger."""
    big = rng.uniform(1000.0, 5000.0)
    small = big * rng.uniform(0.45, 0.55)
    fleets = (big, small) if rng.random() < 0.5 else (small, big)
    return Game(rng.uniform(1e3, 2e5, 2), rng.uniform(0.0, 500.0, 2),
                rng.uniform(10.0, 500.0, 2), *fleets)


def verify(rng):
    """Seeded two-region configs, a third of them with boundary equilibria.

    Each draw is classified by the benchmark's own interior candidate and
    kept until both quotas are filled.
    """
    games = {True: [], False: []}
    quota = {True: VERIFY_INTERIOR, False: VERIFY_BOUNDARY}
    while len(games[True]) < quota[True] or len(games[False]) < quota[False]:
        game = _two_region_game(rng)
        kind = is_interior(game)
        if len(games[kind]) < quota[kind]:
            games[kind].append(game)
    ops = [Op("verify_interior" if kind else "verify_boundary",
              lambda t=_config_text(game): verify_steps(t),
              lambda out, g=game: _check_verify(g, out))
           for kind in (True, False) for game in games[kind]]
    rng.shuffle(ops)
    return ops


def verify_warmup():
    verify_steps(_config_text(Game([35000.0, 120000.0], [10.0, 30.0], [100.0, 300.0],
                                   1000.0, 2000.0)), cells=200)


# -- multiregion ------------------------------------------------------------------


def interior_game(rng):
    """An m-region game whose interior equilibrium is known by construction.

    Region masses and the a-minus-b imbalance are drawn first; charging
    costs then make every gradient of each player equal.
    """
    m = int(rng.integers(3, 9))
    bm = rng.uniform(1e4, 8e4, m)
    eps = rng.uniform(50.0, 320.0, m)
    split = rng.uniform(100.0, 1000.0, m)           # x_a + x_b per region
    mass = split + eps
    # beta_m (x_a - x_b) / T^2 is one constant D (= lambda_a - lambda_b).
    d_max = float(np.min(0.8 * split * bm / mass**2))
    diff = rng.uniform(-1.0, 1.0) * d_max * mass**2 / bm
    x_a, x_b = (split + diff) / 2.0, (split - diff) / 2.0
    benefit_a = bm * (x_b + eps) / mass**2
    lam_a = rng.uniform(5.0, 30.0) - benefit_a.min()
    return Game(bm, benefit_a + lam_a, eps, x_a.sum(), x_b.sum()), x_a, x_b


def boundary_game(rng):
    """An m-region game with empty regions in its known, symmetric equilibrium.

    Both fleets are equal; costs in the empty regions sit a seeded
    margin above the level where entry pays.
    """
    m = int(rng.integers(3, 9))
    empty = int(rng.integers(1, max(1, m // 2) + 1))
    bm = rng.uniform(1e4, 8e4, m)
    eps = rng.uniform(50.0, 320.0, m)
    x = np.zeros(m)
    x[empty:] = rng.uniform(50.0, 500.0, m - empty)
    support = x > 0
    benefit = bm * (x + eps) / (2.0 * x + eps) ** 2
    lam = rng.uniform(5.0, 30.0) - benefit[support].min()
    bc = benefit + lam
    # An empty region's gradient is bm/eps - bc; keep it a margin below -lam.
    margin = rng.uniform(0.05, 0.3, empty) * (bm / eps)[~support]
    bc[~support] = np.maximum(bm / eps + lam, 0.0)[~support] + margin
    order = rng.permutation(m)
    game = Game(bm[order], bc[order], eps[order], x.sum(), x.sum())
    return game, x[order], x[order]


def asymmetric_game(rng):
    """An m-region game with unequal fleets and empty regions in its known equilibrium.

    Shared regions are built as in interior_game, with the larger player
    holding more in each, so its multiplier is higher by d. Of the empty
    regions, the first `both` are left by both players; in the rest only
    the smaller player is absent, and the larger holds y, below the
    smaller root of beta_m y / (y + eps)^2 = c < d, so that entry does
    not pay for the smaller player.
    """
    m = int(rng.integers(3, 9))
    empty = int(rng.integers(1, max(1, m // 2) + 1))
    both = int(rng.integers(0, empty + 1))
    bm = rng.uniform(1e4, 8e4, m)
    eps = rng.uniform(50.0, 320.0, m)
    split = rng.uniform(100.0, 1000.0, m)
    mass = split + eps
    d = rng.uniform(0.3, 1.0) * float(np.min((0.8 * split * bm / mass**2)[empty:]))
    diff = d * mass**2 / bm
    x_large, x_small = (split + diff) / 2.0, (split - diff) / 2.0
    c = d * rng.uniform(0.3, 0.9, m)
    half = bm - 2.0 * c * eps
    disc = half * half - 4.0 * c * c * eps * eps
    small_root = (half - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * c)
    # With no real root, entry never pays for the smaller player.
    y = np.where(disc > 0.0, small_root * rng.uniform(0.5, 0.95, m),
                 rng.uniform(50.0, 500.0, m))
    x_small[:empty] = 0.0
    x_large[:empty] = y[:empty]
    x_large[:both] = 0.0
    benefit = bm * (x_small + eps) / (x_large + x_small + eps) ** 2
    lam = rng.uniform(5.0, 30.0) - benefit[both:].min()
    bc = benefit + lam
    margin = rng.uniform(0.05, 0.3, m) * bm / eps
    bc[:both] = np.maximum(bm / eps + lam, 0.0)[:both] + margin[:both]
    order = rng.permutation(m)
    x_a, x_b = (x_large, x_small) if rng.random() < 0.5 else (x_small, x_large)
    return Game(bm[order], bc[order], eps[order], x_a.sum(), x_b.sum()), x_a[order], x_b[order]


def _check_known(game, result, want_a, want_b):
    _check_result(game, result)
    x_a, x_b = _xs(result.strategy)
    for player, got, want in (("a", x_a, want_a), ("b", x_b, want_b)):
        if np.abs(got - want).max() > 1e-6 * game.fleet[player]:
            raise CheckFailed(f"{player}: {got.tolist()} is not the constructed "
                              f"equilibrium {want.tolist()}")


def _check_asymmetric(game, result, want_a, want_b):
    """_check_known, naming the fallback's stall when it is the cause.

    The fallback stops once no component moves by 1e-9 of the larger
    fleet, but reads a component as occupied above 1e-9 of its owner's
    fleet. A smaller player's empty components can stop in between; the
    result is then tagged "interior", or its duals treat those regions
    as occupied and fail stationarity.
    """
    try:
        _check_known(game, result, want_a, want_b)
    except CheckFailed as exc:
        stalled = [f"{player}{np.flatnonzero(above).tolist()}"
                   for player, got, want in zip("ab", _xs(result.strategy), (want_a, want_b))
                   if (above := (want == 0.0) & (got > 1e-9 * game.fleet[player])).any()]
        if stalled:
            raise CheckFailed(f"{STALLED} in {', '.join(stalled)}: {exc}") from exc
        raise


def multiregion(rng):
    """solve_spec on 3-8 region specs, seven in ten with boundary equilibria.

    The seed draws the interior and the symmetric boundary specs. Every
    round also runs the asymmetric boundary specs from ASYMMETRIC_SEED,
    the fixed four-region scenarios with their 1e5 unit copies, and the
    fixed mislabel spec. These are the same for every seed, so the known
    faults they hit are a fixed share of a round.
    """
    groups = (
        (interior_game, MULTIREGION_INTERIOR, rng, _check_known, None),
        (boundary_game, MULTIREGION_SYMMETRIC, rng, _check_known, None),
        (asymmetric_game, MULTIREGION_ASYMMETRIC, np.random.default_rng(ASYMMETRIC_SEED),
         _check_asymmetric, CheckFailed),
    )
    ops = []
    for make, count, draw, check, fault in groups:
        for _ in range(count):
            game, x_a, x_b = make(draw)
            ops.append(Op(make.__name__.replace("_game", ""),
                          lambda s=_spec(game): fc.solve_spec(s),
                          lambda out, g=game, a=x_a, b=x_b, c=check: c(g, out, a, b),
                          fault, STALLED))
    rng.shuffle(ops)

    solved = {}
    for alpha in RESCALED_ALPHAS:
        base = fc.four_region_spec(alpha)
        game = Game.of(base)
        copy = _spec(game.scaled(RESCALE))

        def check_base(out, g=game, a=alpha):
            _check_result(g, out)
            solved[a] = np.concatenate(_xs(out.strategy))

        def check_copy(out, g=game.scaled(RESCALE), a=alpha):
            _check_result(g, out)
            check_scaled(solved[a], np.concatenate(_xs(out.strategy)), RESCALE)

        ops.append(Op("rescale_base", lambda s=base: fc.solve_spec(s), check_base))
        ops.append(Op("rescale_copy", lambda s=copy: fc.solve_spec(s), check_copy,
                      fc.ValidationError, "is infeasible"))
    mislabel = Game(*zip(*MISLABEL_REGIONS), *MISLABEL_FLEETS)
    ops.append(Op("mislabel", lambda s=_spec(mislabel): fc.solve_spec(s),
                  lambda out, g=mislabel: _check_result(g, out),
                  CheckFailed, "tagged interior"))
    return ops


def multiregion_warmup():
    rng = np.random.default_rng(0)
    for make in (interior_game, boundary_game, asymmetric_game):
        fc.solve_spec(_spec(make(rng)[0]))


#: name: (operations from a seeded rng, warm-up, host-speed calibration kernel)
WORKLOADS = {
    "casestudy": (casestudy, casestudy_warmup, "python"),
    "verify": (verify, verify_warmup, "array"),
    "multiregion": (multiregion, multiregion_warmup, "python"),
}
