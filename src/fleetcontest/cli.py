"""Command-line surface: solve, sweep, alpha-crit, fleet-opt, table1, verify."""

import argparse
import sys

import numpy as np

from .boundary import solve_two_region
from .config import _fmt, emit_csv, parse_config
from .errors import GridSizeError, NumericalError, ValidationError
from .experiments import (
    SweepRecord,
    alpha_sweep,
    detect_alpha_crit,
    detect_optimal_fleet,
    reference_rows,
    solve_spec,
)
from .game import is_feasible, raw_utility_gradient, utility
from .verify import GRID_MAX_CELLS, grid_equilibrium, kkt_residual


def _read_config(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _cmd_solve(args) -> int:
    spec = _read_config(args.config)
    result = solve_spec(spec)
    residual = result.ne_residual  # Read first: a failing certificate prints nothing.
    u_a = utility(spec, "a", result.strategy)
    u_b = utility(spec, "b", result.strategy)
    t_lambda = None if result.trace is None else result.trace.multiplier_sum
    record = SweepRecord(0.0, result.strategy, u_a, u_b, result.location, t_lambda)
    sys.stdout.write(emit_csv([record], m=spec.m))
    print(f"lambda_a = {_fmt(result.duals.lambda_a)}")
    print(f"lambda_b = {_fmt(result.duals.lambda_b)}")
    print("nu_a = " + " ".join(_fmt(v) for v in result.duals.nu_a))
    print("nu_b = " + " ".join(_fmt(v) for v in result.duals.nu_b))
    print(f"ne_residual = {_fmt(residual)}")
    return 0


def _cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValidationError(f"--points must be >= 1, got {args.points}")
    if args.points > GRID_MAX_CELLS:
        raise GridSizeError(f"--points {args.points} exceeds the cap {GRID_MAX_CELLS}")
    values = np.linspace(args.start, args.stop, args.points)
    m = 4 if args.kind == "four" else 2  # The scenario's, even when every point fails.
    sys.stdout.write(emit_csv(alpha_sweep(args.kind, values), m=m))
    return 0


def _cmd_alpha_crit(args) -> int:
    value = detect_alpha_crit(args.lo, args.hi, args.step)
    if value is None:
        print(f"no transition to a single-region equilibrium in [{args.lo:g}, {args.hi:g}]")
        return 0
    print(_fmt(value))
    return 0


def _cmd_fleet_opt(args) -> int:
    print(_fmt(detect_optimal_fleet(args.lo, args.hi, args.step)))
    return 0


def _cmd_table1(args) -> int:
    sys.stdout.write(emit_csv(reference_rows()))
    return 0


def _cmd_verify(args) -> int:
    spec = _read_config(args.config)
    result = solve_two_region(spec)
    checks: list[tuple[str, bool, str]] = []

    feasible = is_feasible(spec, result.strategy.alloc_a) and is_feasible(
        spec, result.strategy.alloc_b
    )
    checks.append(("feasibility", feasible, f"location={result.location}"))

    u_a = utility(spec, "a", result.strategy)
    u_b = utility(spec, "b", result.strategy)
    residual_tol = 1e-6 * (abs(u_a) + abs(u_b) + 1.0)
    checks.append(
        (
            "ne_residual",
            result.ne_residual <= residual_tol,
            f"{result.ne_residual:.3e} <= {residual_tol:.3e}",
        )
    )

    x = np.array([result.strategy.alloc_a.values, result.strategy.alloc_b.values])
    grad_scale = max(1.0, float(np.abs(raw_utility_gradient(spec, x, x[::-1])).max()))
    kkt = kkt_residual(spec, result.strategy, result.duals)
    kkt_tol = 1e-8 * grad_scale
    checks.append(("kkt_residual", kkt <= kkt_tol, f"{kkt:.3e} <= {kkt_tol:.3e}"))

    step = max(spec.fleet_a, spec.fleet_b) / 2000.0
    oracle = grid_equilibrium(spec, step)
    agree = True
    details = []
    for player, fleet in (("a", spec.fleet_a), ("b", spec.fleet_b)):
        cells = max(1, round(fleet / step))
        effective = fleet / cells
        gap = float(
            np.abs(
                result.strategy.of(player).values - oracle.strategy.of(player).values
            ).max()
        )
        agree = agree and gap <= 2.0 * effective
        details.append(f"{player}: {gap:.4g} <= {2.0 * effective:.4g}")
    checks.append(("grid_agreement", agree, "; ".join(details)))

    all_ok = True
    for name, ok, detail in checks:
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_ok else 2


_STEP_HELP = "accepted for older scripts: must be finite and > 0, but sets no scan"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetcontest",
        description="Equilibrium solver for two-company fleet allocation contests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one config file, print the equilibrium")
    p.add_argument("config", help="path to a config file")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("sweep", help="sweep the scenario parameter, print CSV")
    p.add_argument("--kind", choices=("four", "two"), required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("alpha-crit", help="detect where the equilibrium collapses into region 1")
    p.add_argument("--lo", type=float, default=1.0)
    p.add_argument("--hi", type=float, default=50.0)
    p.add_argument("--step", type=float, default=0.1, help=_STEP_HELP)
    p.set_defaults(run=_cmd_alpha_crit)

    p = sub.add_parser("fleet-opt", help="find the payoff-maximizing b fleet size")
    p.add_argument("--lo", type=float, default=200.0)
    p.add_argument("--hi", type=float, default=4000.0)
    p.add_argument("--step", type=float, default=1.0, help=_STEP_HELP)
    p.set_defaults(run=_cmd_fleet_opt)

    p = sub.add_parser("table1", help="print the four reference scenario rows")
    p.set_defaults(run=_cmd_table1)

    p = sub.add_parser("verify", help="re-check a solved config against the oracles")
    p.add_argument("config", help="path to a two-region config file")
    p.set_defaults(run=_cmd_verify)

    return parser


def cli_main(argv=None) -> int:
    """Run the CLI; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
