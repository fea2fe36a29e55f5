"""Time two checkouts of fleetcontest against each other in one process.

Usage: python tools/ab_time.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. Each one's
src/fleetcontest is imported under its own name, and PARENT's a second
time as a control, so one process holds three copies of the package
and alternates between them: the host's speed drifts by more than a
few percent within minutes, which separate processes cannot tell from
the code. The control is the parent timed against itself; a change
whose ratio lies within the control's spread is not resolved.

Workloads, all timed as one call per operation:
- solve_spec on 120 box specs (20 for each m = 3..8, fixed seed), split
  into interior and boundary specs by the parent's own tags. Each spec
  keeps its fastest time over the rounds, and the line reads the sum of
  those minima: a batch-of-one solve costs well under a millisecond, so
  a median would carry the host's noise.
- The 1000-point `four` sweep over alpha in [1, 20] and `two` sweep over
  [1, 50], each with its CSV. The line reads each side's median time and
  the median and quartiles of the round-by-round ratios.
- grid_equilibrium on 20 two-region box specs at the CLI's step,
  max(fleet) / 2000, read as the sum of per-spec minima like the solves,
  and on two_region_spec(1.0) at step 0.5 (a 2000 x 4000 grid), read
  like the sweeps. Both sides must return the same grid points.
"""

import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SOLVE_ROUNDS = 60
SWEEP_ROUNDS = 30
GRID_ROUNDS = 10
SWEEPS = {"four": (1.0, 20.0), "two": (1.0, 50.0)}


def load(checkout: str, name: str):
    """checkout's src/fleetcontest, imported as the top-level package name."""
    package = Path(checkout) / "src" / "fleetcontest"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def box_specs(fc, seed: int = 12345, counts=range(3, 9)) -> list:
    """20 specs for each region count m in counts from the oracles' parameter box."""
    rng = np.random.default_rng(seed)
    specs = []
    for m in counts:
        for _ in range(20):
            regions = tuple(
                fc.RegionParams(float(rng.uniform(1e3, 2e5)), float(rng.uniform(0.0, 500.0)),
                                float(rng.uniform(10.0, 500.0)))
                for _ in range(m))
            specs.append(fc.GameSpec(regions, float(rng.uniform(100.0, 5000.0)),
                                     float(rng.uniform(100.0, 5000.0))))
    return specs


def elapsed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def time_solves(sides: dict) -> dict:
    """Per side, per spec, the fastest solve_spec over SOLVE_ROUNDS rounds."""
    specs = {name: box_specs(fc) for name, fc in sides.items()}
    best = {name: [float("inf")] * len(s) for name, s in specs.items()}
    names = list(sides)
    for r in range(SOLVE_ROUNDS):
        gc.collect()
        order = names[r % len(names):] + names[:r % len(names)]
        for k in range(len(specs[names[0]])):
            for name in order:
                solve, spec = sides[name].solve_spec, specs[name][k]
                best[name][k] = min(best[name][k], elapsed(lambda: solve(spec)))
    return best


def grid_cases(fc) -> list:
    """(spec, step) pairs: the two-region box specs at the CLI's step, then the large grid."""
    cases = [(spec, max(spec.fleet_a, spec.fleet_b) / 2000.0)
             for spec in box_specs(fc, seed=2000, counts=(2,))]
    return cases + [(fc.two_region_spec(1.0), 0.5)]


def time_grids(sides: dict) -> dict:
    """Per side, per grid case, the time of each of GRID_ROUNDS rounds."""
    cases = {name: grid_cases(fc) for name, fc in sides.items()}
    times = {name: [[] for _ in c] for name, c in cases.items()}
    names = list(sides)
    for r in range(GRID_ROUNDS):
        gc.collect()
        order = names[r % len(names):] + names[:r % len(names)]
        for k in range(len(cases[names[0]])):
            for name in order:
                grid, (spec, step) = sides[name].grid_equilibrium, cases[name][k]
                times[name][k].append(elapsed(lambda: grid(spec, step)))
    return times


def time_sweeps(sides: dict) -> dict:
    """Per side and sweep kind, the time of each round's sweep with its CSV."""
    times = {(name, kind): [] for name in sides for kind in SWEEPS}
    names = list(sides)
    for r in range(SWEEP_ROUNDS):
        order = names[r % len(names):] + names[:r % len(names)]
        for kind, (lo, hi) in SWEEPS.items():
            alphas = np.linspace(lo, hi, 1000)
            for name in order:
                fc = sides[name]
                gc.collect()
                times[name, kind].append(
                    elapsed(lambda: fc.emit_csv(fc.alpha_sweep(kind, alphas))))
    return times


def minima_line(label: str, sums: dict) -> str:
    """Each side's summed seconds as the parent's ms and the others' ratios to it."""
    return (f"  {label}: parent {sums['parent'] * 1e3:7.2f} ms"
            f"  change/parent {sums['change'] / sums['parent']:.3f}"
            f"  control/parent {sums['control'] / sums['parent']:.3f}")


def paired_line(label: str, times: dict) -> str:
    """Each side's median ms, with the median and quartiles of its round-by-round ratios."""
    base = times["parent"]
    line = f"  {label}: parent {statistics.median(base) * 1e3:6.1f}"
    for name in ("change", "control"):
        ratios = [t / b for t, b in zip(times[name], base)]
        q1, q2, q3 = statistics.quantiles(ratios, n=4)
        line += (f"  {name} {statistics.median(times[name]) * 1e3:6.1f}"
                 f" ({q2:.3f} [{q1:.3f}, {q3:.3f}])")
    return line


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = {"parent": load(argv[1], "fc_parent"), "control": load(argv[1], "fc_control"),
             "change": load(argv[2], "fc_change")}
    tags = {name: [fc.solve_spec(s).location for s in box_specs(fc)] for name, fc in sides.items()}
    if tags["change"] != tags["parent"]:
        print("the change tags the box specs differently from the parent", file=sys.stderr)
        return 1
    interior = [tag == "interior" for tag in tags["parent"]]
    points = {name: [(o.strategy.alloc_a.values.tolist(), o.strategy.alloc_b.values.tolist(),
                      o.eps_ne) for o in (fc.grid_equilibrium(*case) for case in grid_cases(fc))]
              for name, fc in sides.items()}
    if points["change"] != points["parent"]:
        print("the change returns other grid points than the parent", file=sys.stderr)
        return 1

    best = time_solves(sides)
    print(f"solve_spec, sum of per-spec minima over {SOLVE_ROUNDS} rounds:")
    for label, keep in (("interior", True), ("boundary", False)):
        sums = {name: sum(t for t, inside in zip(times, interior) if inside == keep)
                for name, times in best.items()}
        print(minima_line(f"{label:8} ({interior.count(keep):3} specs)", sums))

    times = time_sweeps(sides)
    print(f"1000-point sweeps with CSV, {SWEEP_ROUNDS} rounds (median ms; paired ratio"
          " median [quartiles]):")
    for kind in SWEEPS:
        print(paired_line(f"{kind:4}", {name: times[name, kind] for name in sides}))

    grids = time_grids(sides)
    print(f"grid_equilibrium, {GRID_ROUNDS} rounds:")
    sums = {name: sum(min(t) for t in runs[:-1]) for name, runs in grids.items()}
    print(minima_line(f"box specs ({len(grids['parent']) - 1} specs, sum of per-spec minima)", sums))
    print(paired_line("2000 x 4000 (median ms; paired ratio median [quartiles])",
                      {name: runs[-1] for name, runs in grids.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
