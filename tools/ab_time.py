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
  a median would carry the host's noise. Before any timing, both sides
  must give each of these specs, and each spec of ne_residual's +-6
  decade points below, the same solve_spec outcome: the same allocation
  bytes, multipliers, tag and iterations, or an error of the same type
  and message. They must also give the same interior_equilibrium outcome
  on the two CLOSED_FORM_REJECTIONS specs, so that each kind of words the
  solve's rule can reject a row with (a multiplier not finite, a player
  left infeasible, the price solve's fleet-sum error) is compared.
- The case study: the 1000-point `four` sweep over alpha in [1, 20], the
  `two` sweep over [1, 50] and the fleet_sweep over fleet_b in
  [200, 4000], each with its CSV, detect_alpha_crit(1, 50, 0.1),
  detect_alpha_crit over 20 seeded windows drawn as perfbench's
  casestudy draws them (lo in [37, 37.5], hi = min(50, alpha* + U(1,
  8))), detect_optimal_fleet(200, 4000, 1), and detect_optimal_fleet(1714,
  1794, 1), an 80-step window around the optimum like those perfbench's
  casestudy draws. Each line reads each side's median time and the
  median and quartiles of the round-by-round ratios. Both
  sides must print the same CSV bytes, return the same detector doubles
  (those of the 20 windows within one ulp of each other), and give the
  same format_config text for each scenario path's one-spec views over
  the grids the view pin in tests/test_experiments.py uses.
- grid_equilibrium on 20 two-region box specs at the CLI's step,
  max(fleet) / 2000, read as the sum of per-spec minima like the solves,
  and on two_region_spec(1.0) at step 0.5 (a 2000 x 4000 grid), read
  like the sweeps. Both sides must return the same grid points.
- two_region_scan on tests/test_kernels.py's FLAT case at 1000 x 2000,
  where no peak of b is certified and every row is scanned whole, read
  like the sweeps. Both sides must return the same triple.
- The steps of `fleetcontest verify` on 20 two-region box configs: parse,
  solve_two_region, kkt_residual, ne_residual, duals_from_gradients and
  grid_equilibrium at the CLI's step, read as the sum of per-config
  minima, once with the grid oracle and once without it. Both sides must
  return the same values.
- enumerate_candidates on 100 two-region box specs, read as the sum of
  per-spec minima. Both sides must give each family the same verdict:
  the same error type, or the same certification with z* at the same end
  of the free fleet's segment or inside it, and z* within 1e-13 of that
  fleet.
- ne_residual over 80 points each from box specs and from specs with
  every parameter log-uniform over +-6 and +-30 decades (m = 1..8, a
  zero charging cost a tenth of the time): each spec at a random
  feasible point and, if it solves, at its solve_spec equilibrium. Read
  as the sum of per-point minima. Both sides must return the same
  residuals, or raise the same errors.
"""

import gc
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SOLVE_ROUNDS = 60
SWEEP_ROUNDS = 30
GRID_ROUNDS = 10
VERIFY_ROUNDS = 20
NE_ROUNDS = 20
BOUNDARY_ROUNDS = 20

#: tests/test_kernels.py's FLAT case, whose payoffs are flat to rounding,
#: on a 1000 x 2000 grid.
FLAT = dict(
    bm1=1.315983480903408e-10, bm2=2.684150589770447e-10,
    bc1=5.427827079572237, bc2=5.427827079572244,
    e1=890.7994921040937, e2=33.96448942760579,
    xa=677.5806911994487, xb=336.66382083160374, na=1000, nb=2000,
)


#: Two specs, as (regions, fleet_a, fleet_b), whose closed-form candidate has
#: no empty component and fails the solve's rule: one from +-150 decade draws,
#: whose multipliers overflow (lambda_a is NaN), and entry 92 of m = 2 in
#: TestSolveBytes.wide_specs() (tests/test_experiments.py), which leaves b's
#: fleet sum missed.
CLOSED_FORM_REJECTIONS = (
    (((3.08e-117, 3.96e-100, 6.06e82), (1.96e-32, 7.28e-25, 5.57e104)), 3.01e13, 4.29e-63),
    (((25241.68868247985, 23568.328464290204, 0.04084454516637628),
      (1950523.849203288, 0.002425162786255736, 613091.6743645718)),
     185556731.07575703, 2.7695575717704104),
)


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


def time_cases(sides: dict, cases: dict, run, rounds: int) -> dict:
    """Per side, per case, the time of run(fc, case) in each round.

    cases holds each side's own list of cases. Within a case the sides
    take turns, in an order that rotates from round to round.
    """
    times = {name: [[] for _ in c] for name, c in cases.items()}
    names = list(sides)
    for r in range(rounds):
        gc.collect()
        order = names[r % len(names):] + names[:r % len(names)]
        for k in range(len(cases[names[0]])):
            for name in order:
                fc, case = sides[name], cases[name][k]
                times[name][k].append(elapsed(lambda: run(fc, case)))
    return times


def grid_cases(fc) -> list:
    """(spec, step) pairs: the two-region box specs at the CLI's step, then the large grid."""
    cases = [(spec, max(spec.fleet_a, spec.fleet_b) / 2000.0)
             for spec in box_specs(fc, seed=2000, counts=(2,))]
    return cases + [(fc.two_region_spec(1.0), 0.5)]


def verify_steps(fc, text: str, grid: bool = True) -> list:
    """The steps of `fleetcontest verify` on one config text, as one list of floats."""
    spec = fc.parse_config(text)
    result = fc.solve_two_region(spec)
    strategy = result.strategy
    duals = fc.duals_from_gradients(spec, strategy)
    values = [*strategy.alloc_a.values.tolist(), *strategy.alloc_b.values.tolist(),
              fc.kkt_residual(spec, strategy, result.duals), fc.ne_residual(spec, strategy),
              duals.lambda_a, duals.lambda_b, *duals.nu_a.tolist(), *duals.nu_b.tolist()]
    if grid:
        oracle = fc.grid_equilibrium(spec, max(spec.fleet_a, spec.fleet_b) / 2000.0)
        values += [*oracle.strategy.alloc_a.values.tolist(),
                   *oracle.strategy.alloc_b.values.tolist(), oracle.eps_ne]
    return values


def verify_configs(fc) -> list:
    """20 two-region box configs, as config texts."""
    return [fc.format_config(spec) for spec in box_specs(fc, seed=2100, counts=(2,))]


def ne_points(fc, decades=None, count: int = 80) -> list:
    """count (spec, joint) points for ne_residual, drawn from the box (decades
    None) or log-uniform over 10**+-decades, as the module docstring says."""
    rng = np.random.default_rng(2200 + (decades or 0))

    def draw(lo, hi):
        return float(rng.uniform(lo, hi) if decades is None
                     else 10.0 ** rng.uniform(-decades, decades))

    points = []
    with np.errstate(all="ignore"):
        while len(points) < count:
            m = int(rng.integers(1, 9))
            regions = tuple(fc.RegionParams(draw(1e3, 2e5),
                                            0.0 if rng.random() < 0.1 else draw(0.0, 500.0),
                                            draw(10.0, 500.0)) for _ in range(m))
            spec = fc.GameSpec(regions, draw(100.0, 5000.0), draw(100.0, 5000.0))
            split = [rng.dirichlet(np.ones(m)) * fleet for fleet in (spec.fleet_a, spec.fleet_b)]
            points.append((spec, fc.joint_from_arrays(*split)))
            try:
                points.append((spec, fc.solve_spec(spec).strategy))
            except fc.FleetContestError:
                pass
    return points[:count]


def solve_outcome(fc, spec):
    """solve_spec on one spec as its allocation and multiplier bytes, tag and
    iterations, or the type and message of the error it raises."""
    try:
        result = fc.solve_spec(spec)
    except fc.FleetContestError as exc:
        return type(exc).__name__, str(exc)
    joint, duals = result.strategy, result.duals
    values = (joint.alloc_a.values, joint.alloc_b.values, [duals.lambda_a, duals.lambda_b],
              duals.nu_a, duals.nu_b)
    return ([np.asarray(v, dtype=float).tobytes() for v in values], result.location,
            result.iterations)


def interior_outcome(fc, regions, fleet_a, fleet_b):
    """interior_equilibrium on one spec as the type and message of the error
    it raises, or whether it returned an interior candidate."""
    spec = fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions), fleet_a, fleet_b)
    try:
        return fc.interior_equilibrium(spec).is_interior
    except fc.FleetContestError as exc:
        return type(exc).__name__, str(exc)


def ne_outcome(fc, point):
    """ne_residual at one point as its hex digits, or the error it raises."""
    try:
        return fc.ne_residual(*point).hex()
    except fc.FleetContestError as exc:
        return type(exc).__name__, str(exc)


def boundary_outcome(fc, spec, family):
    """(certified, where z* lies, z* over the free fleet) of one family, or the error's type."""
    free = spec.fleet_b if family.startswith("A") else spec.fleet_a
    try:
        cand = fc.boundary_candidate(spec, family)
    except fc.FleetContestError as exc:
        return type(exc).__name__
    kind = "zero" if cand.z_star == 0.0 else "fleet" if cand.z_star == free else "inside"
    return cand.certified, kind, cand.z_star / free


def outcomes_agree(mine, theirs) -> bool:
    """Two boundary_outcome values are one verdict, with z* within 1e-13 of the fleet."""
    if isinstance(mine, str) or isinstance(theirs, str):
        return mine == theirs
    return mine[:2] == theirs[:2] and abs(mine[2] - theirs[2]) <= 1e-13


def alpha_crit_windows(crit: float, count: int = 20, seed: int = 2500) -> list:
    """count seeded (lo, hi, step) windows drawn as perfbench's casestudy
    draws them around the collapse scale crit."""
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(count):
        lo = rng.uniform(37.0, 37.5)
        step = (crit - lo) / rng.uniform(88.0, 92.0)
        windows.append((lo, min(50.0, crit + rng.uniform(1.0, 8.0)), step))
    return windows


def case_study(fc, windows: list) -> dict:
    """The case-study calls by label: three 1000-point sweeps, each with
    its CSV, both detectors over their whole windows, the collapse
    detector over windows, and the fleet detector over an 80-step window
    around its optimum."""
    four, two, fleet = (np.linspace(lo, hi, 1000)
                        for lo, hi in ((1.0, 20.0), (1.0, 50.0), (200.0, 4000.0)))
    return {"four": lambda: fc.emit_csv(fc.alpha_sweep("four", four)),
            "two": lambda: fc.emit_csv(fc.alpha_sweep("two", two)),
            "fleet": lambda: fc.emit_csv(fc.fleet_sweep(fleet)),
            "alpha-crit": lambda: fc.detect_alpha_crit(1.0, 50.0, 0.1),
            "alpha-crit windows": lambda: [fc.detect_alpha_crit(*w) for w in windows],
            "fleet-opt": lambda: fc.detect_optimal_fleet(200.0, 4000.0, 1.0),
            "fleet-opt window": lambda: fc.detect_optimal_fleet(1714.0, 1794.0, 1.0)}


def view_texts(fc) -> str:
    """The config text of each scenario path's views: 1901 `four`, 4901
    `two` and 3801 fleet points, both ends of each range included."""
    ex = fc.experiments
    return "".join(fc.format_config(path.spec(t))
                   for path, points in ((ex._FOUR, 1901), (ex._TWO, 4901), (ex._FLEET, 3801))
                   for t in np.linspace(path.lo, path.hi, points).tolist())


def time_case_study(calls: dict) -> dict:
    """Per side and label, the time of each round's case-study call."""
    times = {(name, label): [] for name, side in calls.items() for label in side}
    names = list(calls)
    for r in range(SWEEP_ROUNDS):
        order = names[r % len(names):] + names[:r % len(names)]
        for label in calls[names[0]]:
            for name in order:
                gc.collect()
                times[name, label].append(elapsed(calls[name][label]))
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
    ne_sets = {(name, decades): ne_points(fc, decades)
               for name, fc in sides.items() for decades in (None, 6, 30)}
    boxes = {name: box_specs(fc) for name, fc in sides.items()}
    solved = {name: [solve_outcome(fc, spec)
                     for spec in boxes[name] + [spec for spec, _ in ne_sets[name, 6]]]
              for name, fc in sides.items()}
    if solved["change"] != solved["parent"]:
        print("the change returns other solve_spec allocations, multipliers, tags, iterations or"
              " errors than the parent", file=sys.stderr)
        return 1
    rejected = {name: [interior_outcome(fc, *case) for case in CLOSED_FORM_REJECTIONS]
                for name, fc in sides.items()}
    if rejected["change"] != rejected["parent"]:
        print("the change gives other interior_equilibrium outcomes than the parent on the"
              " closed-form rejections", file=sys.stderr)
        return 1
    interior = [outcome[1] == "interior" for outcome in solved["parent"][:len(boxes["parent"])]]
    points = {name: [(o.strategy.alloc_a.values.tolist(), o.strategy.alloc_b.values.tolist(),
                      o.eps_ne) for o in (fc.grid_equilibrium(*case) for case in grid_cases(fc))]
              for name, fc in sides.items()}
    if points["change"] != points["parent"]:
        print("the change returns other grid points than the parent", file=sys.stderr)
        return 1
    flat = {name: fc._kernels.two_region_scan(**FLAT) for name, fc in sides.items()}
    if flat["change"] != flat["parent"]:
        print("the change scans the flat grid to another triple than the parent", file=sys.stderr)
        return 1
    configs = {name: verify_configs(fc) for name, fc in sides.items()}
    checked = {name: np.array([verify_steps(sides[name], text) for text in texts]).tobytes()
               for name, texts in configs.items()}
    if checked["change"] != checked["parent"]:
        print("the change returns other verify values than the parent", file=sys.stderr)
        return 1
    for decades in (None, 6, 30):
        if ([ne_outcome(sides["change"], p) for p in ne_sets["change", decades]]
                != [ne_outcome(sides["parent"], p) for p in ne_sets["parent", decades]]):
            print("the change returns other ne_residual values or errors than the parent",
                  file=sys.stderr)
            return 1
    boundary = {name: box_specs(fc, seed=2300, counts=(2,) * 5) for name, fc in sides.items()}
    if not all(outcomes_agree(boundary_outcome(sides["change"], mine, family),
                              boundary_outcome(sides["parent"], theirs, family))
               for mine, theirs in zip(boundary["change"], boundary["parent"])
               for family in sides["parent"].FAMILIES):
        print("the change gives a boundary family another verdict than the parent", file=sys.stderr)
        return 1
    windows = alpha_crit_windows(sides["parent"].detect_alpha_crit(1.0, 50.0, 0.1))
    calls = {name: case_study(fc, windows) for name, fc in sides.items()}
    outputs = {name: {label: call() for label, call in side.items()}
               for name, side in calls.items()}
    scales = zip(*(outputs[name].pop("alpha-crit windows") for name in ("change", "parent")))
    if outputs["change"] != outputs["parent"] or not all(
            mine == theirs or None not in (mine, theirs) and abs(mine - theirs) <= math.ulp(theirs)
            for mine, theirs in scales):
        print("the change prints other sweep CSV, or its detectors return other doubles, than"
              " the parent", file=sys.stderr)
        return 1
    if view_texts(sides["change"]) != view_texts(sides["parent"]):
        print("the change forms other one-spec views than the parent", file=sys.stderr)
        return 1

    best = time_cases(sides, boxes, lambda fc, spec: fc.solve_spec(spec), SOLVE_ROUNDS)
    print(f"solve_spec, sum of per-spec minima over {SOLVE_ROUNDS} rounds:")
    for label, keep in (("interior", True), ("boundary", False)):
        sums = {name: sum(min(t) for t, inside in zip(times, interior) if inside == keep)
                for name, times in best.items()}
        print(minima_line(f"{label:8} ({interior.count(keep):3} specs)", sums))

    times = time_case_study(calls)
    print(f"case study: 1000-point sweeps with CSV and both detectors, {SWEEP_ROUNDS} rounds"
          " (median ms; paired ratio median [quartiles]):")
    for label in calls["parent"]:
        print(paired_line(f"{label:18}", {name: times[name, label] for name in sides}))

    grids = time_cases(sides, {name: grid_cases(fc) for name, fc in sides.items()},
                       lambda fc, case: fc.grid_equilibrium(*case), GRID_ROUNDS)
    print(f"grid_equilibrium, {GRID_ROUNDS} rounds:")
    sums = {name: sum(min(t) for t in runs[:-1]) for name, runs in grids.items()}
    print(minima_line(f"box specs ({len(grids['parent']) - 1} specs, sum of per-spec minima)", sums))
    print(paired_line("2000 x 4000 (median ms; paired ratio median [quartiles])",
                      {name: runs[-1] for name, runs in grids.items()}))

    flat_times = time_cases(sides, {name: [FLAT] for name in sides},
                            lambda fc, case: fc._kernels.two_region_scan(**case), GRID_ROUNDS)
    print(paired_line(f"flat full scan, 1000 x 2000, {GRID_ROUNDS} rounds (median ms; paired"
                      " ratio median [quartiles])",
                      {name: runs[0] for name, runs in flat_times.items()}))

    print(f"verify steps on {len(configs['parent'])} configs, sum of per-config minima over"
          f" {VERIFY_ROUNDS} rounds:")
    for label, grid in (("with the grid oracle", True), ("without it", False)):
        times = time_cases(sides, configs, lambda fc, text: verify_steps(fc, text, grid),
                           VERIFY_ROUNDS)
        print(minima_line(label, {name: sum(min(t) for t in runs) for name, runs in times.items()}))

    print(f"enumerate_candidates, sum of per-spec minima over {BOUNDARY_ROUNDS} rounds:")
    times = time_cases(sides, boundary, lambda fc, spec: fc.enumerate_candidates(spec),
                       BOUNDARY_ROUNDS)
    print(minima_line(f"box specs ({len(boundary['parent'])} specs)",
                      {name: sum(min(t) for t in runs) for name, runs in times.items()}))

    print(f"ne_residual, sum of per-point minima over {NE_ROUNDS} rounds:")
    for label, decades in (("box", None), ("+-6 decades", 6), ("+-30 decades", 30)):
        times = time_cases(sides, {name: ne_sets[name, decades] for name in sides},
                           ne_outcome, NE_ROUNDS)
        sums = {name: sum(min(t) for t in runs) for name, runs in times.items()}
        print(minima_line(f"{label:12} ({len(ne_sets['parent', decades])} points)", sums))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
