"""Self-test of the benchmark's output checks.

Each check must pass the program's true answer and reject a planted
wrong one: an allocation nudged off the equilibrium, alpha_crit moved by
ten times its tolerance, the grid oracle's cell moved one step, and an
unscaled result offered for a rescaled spec. Run from the root of a
checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fleetcontest as fc  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    Game,
    alpha_crit,
    check_alpha_crit,
    check_duals,
    check_equilibrium,
    check_grid,
    check_scaled,
)
from workloads import (  # noqa: E402
    RESCALE,
    _xs,
    asymmetric_game,
    boundary_game,
    interior_game,
    oracle_cell,
    verify_steps,
)


def _rejects(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a planted wrong answer")


def nudged_allocation():
    for spec in (fc.two_region_spec(5.0), fc.two_region_spec(45.0), fc.four_region_spec(7.0)):
        game = Game.of(spec)
        result = fc.solve_spec(spec)
        x_a, x_b = _xs(result.strategy)
        check_equilibrium(game, x_a, x_b, result.location)
        moved = 1e-3 * game.fleet["a"]
        nudged = x_a.copy()
        donor = int(np.argmax(nudged))
        nudged[donor] -= moved
        nudged[(donor + 1) % nudged.size] += moved
        _rejects(check_equilibrium, game, nudged, x_b, result.location)
        d = result.duals
        _rejects(check_duals, game, nudged, x_b, d.lambda_a, d.lambda_b, d.nu_a, d.nu_b)
    rng = np.random.default_rng(7)
    for make in (interior_game, boundary_game, asymmetric_game):
        game, x_a, x_b = make(rng)
        check_equilibrium(game, x_a, x_b)
        _rejects(check_equilibrium, game, x_a * 1.01, x_b)


def shifted_alpha_crit():
    two = Game.of(fc.two_region_spec(1.0))
    slope = Game.of(fc.two_region_spec(2.0)).beta_c[1] - two.beta_c[1]
    crit = alpha_crit(two.beta_m, two.beta_c[0], two.eps, two.fleet["a"], two.fleet["b"], slope)
    assert abs(crit - 40.5994) < 1e-4, crit
    step = 0.1
    found = fc.detect_alpha_crit(38.0, 45.0, step)
    check_alpha_crit(found, crit, step)
    _rejects(check_alpha_crit, found + 10 * step / 100, crit, step)
    _rejects(check_alpha_crit, None, crit, step)


def moved_oracle_cell():
    game = Game([35000.0, 120000.0], [10.0, 30.0], [100.0, 300.0], 1000.0, 2000.0)
    text = "fleet_a = 1000\nfleet_b = 2000\n" \
           "region beta_m=35000 beta_c=10 epsilon=100\n" \
           "region beta_m=120000 beta_c=30 epsilon=300\n"
    _, result, *_, oracle = verify_steps(text, cells=400)
    n_a, n_b, i_a, i_b = oracle_cell(game, oracle)
    x_a, x_b = _xs(result.strategy)
    check_grid(game, n_a, n_b, i_a, i_b, oracle.eps_ne, x_a[0], x_b[0])
    _rejects(check_grid, game, n_a, n_b, i_a + 1, i_b, oracle.eps_ne, x_a[0], x_b[0])
    _rejects(check_grid, game, n_a, n_b, i_a, i_b - 1, oracle.eps_ne, x_a[0], x_b[0])


def unscaled_result():
    spec = fc.four_region_spec(12.0)
    game = Game.of(spec)
    base = np.concatenate(_xs(fc.solve_spec(spec).strategy))
    scaled = game.scaled(RESCALE)
    half = base.size // 2
    check_scaled(base, base * RESCALE, RESCALE)
    _rejects(check_scaled, base, base, RESCALE)
    _rejects(check_equilibrium, scaled, base[:half], base[half:])


def main():
    failures = 0
    for test in (nudged_allocation, shifted_alpha_crit, moved_oracle_cell, unscaled_result):
        try:
            test()
        except (AssertionError, CheckFailed) as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
