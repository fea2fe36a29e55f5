"""Time two checkouts of fleetcontest against each other in one process.

Usage: python tools/ab_time.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. Each one's
src/fleetcontest is imported under its own name, and PARENT's a second
time as a control, so one process holds three copies of the package
and alternates between them: the host's speed drifts by more than a
few percent within minutes, which separate processes cannot tell from
the code. The control is the parent timed against itself; a change
whose ratio lies within the control's spread is not resolved.

Each side's inputs (box specs, ne_residual points over the box and
+-6, +-30 and +-300 decades, grid cases, verify configs, boundary specs and
case-study calls) are built once, by side_inputs, and read by two
tables:
- An identity entry (IDENTITIES) says what the change would do
  otherwise than the parent, how one side's outcome is formed from its
  package and inputs, and when two outcomes agree: equal, or within a
  stated tolerance. Before any timing, the change's outcome must agree
  with the parent's for every entry; the tool stops at the first that
  does not, names it and exits 1.
- A timed section (sections) is a header, its rounds, where Python's
  garbage collector runs (once a round, or before every call), each
  side's calls, and the lines read from their times. Within a call the
  sides take turns, in an order that rotates from round to round. A
  line reads either the sum over some calls of each call's fastest
  time, with change and control as ratios to the parent (a batch-of-one
  solve costs well under a millisecond, so a median would carry the
  host's noise), or one call's median time with the median and
  quartiles of its round-by-round ratios to the parent.
"""

import gc
import importlib.util
import math
import statistics
import sys
import time
from functools import partial
from operator import eq
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SOLVE_ROUNDS = 60
SWEEP_ROUNDS = 30
GRID_ROUNDS = 10
VERIFY_ROUNDS = 20
NE_ROUNDS = 20
BOUNDARY_ROUNDS = 20

#: A one-row solve of fewer regions than this runs the solver's row kernels,
#: and one of this many its array kernels; the largest box specs have this many.
ROW_REGIONS = 8

#: tests/test_kernels.py's FLAT case, whose payoffs are flat to rounding,
#: on a 1000 x 2000 grid.
FLAT = dict(
    bm1=1.315983480903408e-10, bm2=2.684150589770447e-10,
    bc1=5.427827079572237, bc2=5.427827079572244,
    e1=890.7994921040937, e2=33.96448942760579,
    xa=677.5806911994487, xb=336.66382083160374, na=1000, nb=2000,
)

#: The two cases of tests/test_kernels.py's
#: test_minimum_beyond_the_window_of_a_certified_peak, whose smallest regrets,
#: 1.786347957235385e-07 and 0.46609870787480645, are not 0.0 as every other
#: grid regret compared here is. The second scans rows whole, which read a's
#: best responses outside b's windows.
BEYOND_THE_WINDOW = (
    dict(bm1=0.002096900204086986, bm2=0.005926062584702359, bc1=0.0, bc2=0.0,
         e1=0.06071359031057972, e2=0.18963363933168978,
         xa=11.947072115328027, xb=0.018198709563248996, na=48, nb=271),
    dict(bm1=7627.096086414264, bm2=77.39624554600309,
         bc1=3.1933583791704197e-06, bc2=0.17235945672510644,
         e1=4.587656486044541, e2=0.013361812538495223,
         xa=2989.423286378751, xb=22.149917210155692, na=157, nb=205),
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


#: Specs, as (regions, fleet_a, fleet_b), whose solve makes a row kernel
#: raise, so that numpy's kernel redoes the evaluation: the three of
#: tests/test_experiments.py's test_a_bracket_out_of_range_fails_alone, whose
#: root-find bracket is a zero gap, and a +-150-decade draw whose price
#: solve starts at water levels that underflow to zero.
REDONE = (
    (((35000.0, 10.0, 100.0), (120000.0, 30.0, 300.0)), 1e154, 1e154),
    (((35000.0, 10.0, 100.0), (120000.0, 30.0, 300.0)), 1e300, 1e300),
    (((1e4, 1.0, 1e-200), (2e4, 2.0, 1e-200)), 1e-200, 1e-200),
    (((2.8898566228714435e-70, 3.3334332632912153e-15, 1.1199680213231962e+18),),
     4.4677105668905464e+151, 6.288915567857167e+90),
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


def ne_points(fc, decades=None, count: int = 80) -> list:
    """count (spec, joint) points for ne_residual. Each spec (m = 1..8) is
    drawn from the box (decades None) or with every parameter log-uniform
    over 10**+-decades, with a zero charging cost a tenth of the time, and
    gives a random feasible point and, if it solves, its solve_spec
    equilibrium."""
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


def bits(value: float) -> str:
    """A double's eight bytes in hex, which tell apart the signs of zeros and NaNs."""
    return np.float64(value).tobytes().hex()


def payoff_outcome(fc, point):
    """At one (spec, joint) point and at the spec's corner joint (a's fleet
    all in the first region, b's all in the last), per player:
    is_feasible's flag, and raw_utility's and utility's bits, or the type
    and message of the error utility raises. Over +-300 decades some
    payoffs overflow to inf, and at a corner a zero holding times an
    infinite margin gives NaN."""
    spec, joint = point
    corner_a, corner_b = np.zeros(spec.m), np.zeros(spec.m)
    corner_a[0], corner_b[-1] = spec.fleet_a, spec.fleet_b
    outcome = []
    for joint in (joint, fc.joint_from_arrays(corner_a, corner_b)):
        for player in ("a", "b"):
            own, rival = joint.of(player).values, joint.of(fc.opponent(player)).values
            try:
                utility = bits(fc.utility(spec, player, joint))
            except fc.FleetContestError as exc:
                utility = type(exc).__name__, str(exc)
            outcome += [bool(fc.is_feasible(spec, joint.of(player))),
                        bits(fc.raw_utility(spec, own, rival)), utility]
    return outcome


def boundary_outcome(fc, spec, family):
    """(certified, where z* lies, z* over the free fleet) of one family, or the error's type."""
    free = spec.fleet_b if family.startswith("A") else spec.fleet_a
    try:
        cand = fc.boundary_candidate(spec, family)
    except fc.FleetContestError as exc:
        return type(exc).__name__
    kind = "zero" if cand.z_star == 0.0 else "fleet" if cand.z_star == free else "inside"
    return cand.certified, kind, cand.z_star / free


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


def minima_line(label: str, times: dict) -> str:
    """Each side's sum of per-call minima as the parent's ms and the others' ratios to it."""
    sums = {name: sum(min(t) for t in runs) for name, runs in times.items()}
    return (f"  {label}: parent {sums['parent'] * 1e3:7.2f} ms"
            f"  change/parent {sums['change'] / sums['parent']:.3f}"
            f"  control/parent {sums['control'] / sums['parent']:.3f}")


def paired_line(label: str, times: dict) -> str:
    """Each side's median ms of its one call, with the median and quartiles
    of its round-by-round ratios."""
    (base,) = times["parent"]
    line = f"  {label}: parent {statistics.median(base) * 1e3:6.1f}"
    for name in ("change", "control"):
        (runs,) = times[name]
        q1, q2, q3 = statistics.quantiles([t / b for t, b in zip(runs, base)], n=4)
        line += f"  {name} {statistics.median(runs) * 1e3:6.1f} ({q2:.3f} [{q1:.3f}, {q3:.3f}])"
    return line


def timed(calls: dict, rounds: int, each: bool) -> dict:
    """Per side, per call, the call's time in each round.

    calls holds each side's own list of calls. Within a call the sides
    take turns, in an order that rotates from round to round. The
    garbage collector runs before every call if each, else as each
    round starts.
    """
    times = {name: [[] for _ in side] for name, side in calls.items()}
    names = list(calls)
    for r in range(rounds):
        if not each:
            gc.collect()
        order = names[r % len(names):] + names[:r % len(names)]
        for k in range(len(calls[names[0]])):
            for name in order:
                if each:
                    gc.collect()
                start = time.perf_counter()
                calls[name][k]()
                times[name][k].append(time.perf_counter() - start)
    return times


def side_inputs(fc, windows: list) -> SimpleNamespace:
    """One side's inputs to both tables: 120 box specs for m = 3..8; 80
    ne_residual points each over the box and +-6, +-30 and +-300 decades
    (timed at all but +-300); grid
    cases, 20 two-region box specs at the CLI's step, max(fleet) / 2000,
    and then two_region_spec(1.0) at step 0.5 (2000 x 4000); 20 two-region
    box configs as config texts; 100 two-region box specs for the boundary
    families; and the case-study calls, with the collapse windows."""
    grids = [(spec, max(spec.fleet_a, spec.fleet_b) / 2000.0)
             for spec in box_specs(fc, seed=2000, counts=(2,))]
    return SimpleNamespace(
        boxes=box_specs(fc),
        ne={decades: ne_points(fc, decades) for decades in (None, 6, 30, 300)},
        grids=grids + [(fc.two_region_spec(1.0), 0.5)],
        configs=[fc.format_config(spec) for spec in box_specs(fc, seed=2100, counts=(2,))],
        boundary=box_specs(fc, seed=2300, counts=(2,) * 5), calls=case_study(fc, windows))


def verdicts_agree(mine: list, theirs: list) -> bool:
    """Two lists of boundary_outcome values give each family one verdict,
    with z* within 1e-13 of the free fleet."""
    return all(m == t if isinstance(m, str) or isinstance(t, str)
               else m[:2] == t[:2] and abs(m[2] - t[2]) <= 1e-13 for m, t in zip(mine, theirs))


def case_study_agrees(mine: dict, theirs: dict) -> bool:
    """Two sides' case-study outputs are equal, but for the collapse scales
    of the windows, which may differ by one ulp."""
    windows = "alpha-crit windows"
    return {**mine, windows: None} == {**theirs, windows: None} and all(
        m == t or None not in (m, t) and abs(m - t) <= math.ulp(t)
        for m, t in zip(mine[windows], theirs[windows]))


#: The identity entries, checked in this order: what the change does otherwise
#: than the parent if the entry fails, one side's outcome from its package and
#: inputs, and the agreement of two outcomes (the change's, the parent's).
IDENTITIES = (
    ("returns other solve_spec allocations, multipliers, tags, iterations or errors",
     lambda fc, s: [solve_outcome(fc, spec)
                    for spec in s.boxes + [p[0] for p in s.ne[6] + s.ne[30]]]
     + [solve_outcome(fc, fc.GameSpec(tuple(fc.RegionParams(*r) for r in regions), *fleets))
        for regions, *fleets in REDONE], eq),
    ("gives other interior_equilibrium outcomes on the closed-form rejections",
     lambda fc, s: [interior_outcome(fc, *case) for case in CLOSED_FORM_REJECTIONS], eq),
    ("returns other grid points",
     lambda fc, s: [(o.strategy.alloc_a.values.tolist(), o.strategy.alloc_b.values.tolist(),
                     o.eps_ne) for o in (fc.grid_equilibrium(*case) for case in s.grids)], eq),
    ("scans the flat grid or a grid whose minimum lies beyond b's window to another triple",
     lambda fc, s: [fc._kernels.two_region_scan(**case) for case in (FLAT, *BEYOND_THE_WINDOW)],
     eq),
    ("returns other verify values",
     lambda fc, s: np.array([verify_steps(fc, text) for text in s.configs]).tobytes(), eq),
    ("returns other ne_residual values or errors",
     lambda fc, s: [ne_outcome(fc, p) for points in s.ne.values() for p in points], eq),
    ("returns other payoffs or feasibility flags at the ne_residual points or their corners",
     lambda fc, s: [payoff_outcome(fc, p) for points in s.ne.values() for p in points], eq),
    ("gives a boundary family another verdict",
     lambda fc, s: [boundary_outcome(fc, spec, family) for spec in s.boundary
                    for family in fc.FAMILIES], verdicts_agree),
    ("prints other sweep CSV, or its detectors return other doubles,",
     lambda fc, s: {label: call() for label, call in s.calls.items()}, case_study_agrees),
    ("forms other one-spec views", lambda fc, s: view_texts(fc), eq),
)


def sections(parent, inputs) -> list:
    """The timed sections, with counts and the split of the box specs read
    off the parent's package and inputs: interior or boundary, and m < 8,
    whose one-row solves run the row kernels, or m = 8, which runs the
    array kernels. Each is (header, or None to go on under the last one;
    rounds; whether the collector runs before every call; each side's
    calls from its package and inputs; lines as (label, line, indices of
    the calls it reads))."""
    kinds = [(solve_outcome(parent, spec)[1] == "interior", len(spec.regions) < ROW_REGIONS)
             for spec in inputs.boxes]
    split = [(f"{place}, {form}", [k for k, kind in enumerate(kinds) if kind == (inside, row)])
             for place, inside in (("interior", True), ("boundary", False))
             for form, row in ((f"m < {ROW_REGIONS}", True), (f"m = {ROW_REGIONS}", False))]
    paired = "(median ms; paired ratio median [quartiles])"
    return [
        (f"solve_spec, sum of per-spec minima over {SOLVE_ROUNDS} rounds:", SOLVE_ROUNDS, False,
         lambda fc, s: [partial(fc.solve_spec, spec) for spec in s.boxes],
         [(f"{label:15} ({len(picked):3} specs)", minima_line, picked) for label, picked in split]),
        (f"case study: 1000-point sweeps with CSV and both detectors, {SWEEP_ROUNDS} rounds"
         f" {paired}:", SWEEP_ROUNDS, True, lambda fc, s: list(s.calls.values()),
         [(f"{label:18}", paired_line, [k]) for k, label in enumerate(inputs.calls)]),
        (f"grid_equilibrium, {GRID_ROUNDS} rounds:", GRID_ROUNDS, False,
         lambda fc, s: [partial(fc.grid_equilibrium, *case) for case in s.grids],
         [(f"box specs ({len(inputs.grids) - 1} specs, sum of per-spec minima)", minima_line,
           range(len(inputs.grids) - 1)), (f"2000 x 4000 {paired}", paired_line, [-1])]),
        (None, GRID_ROUNDS, False, lambda fc, s: [partial(fc._kernels.two_region_scan, **FLAT)],
         [(f"flat full scan, 1000 x 2000, {GRID_ROUNDS} rounds {paired}", paired_line, [0])]),
        (f"verify steps on {len(inputs.configs)} configs, sum of per-config minima over"
         f" {VERIFY_ROUNDS} rounds:", VERIFY_ROUNDS, False,
         lambda fc, s: [partial(verify_steps, fc, text, True) for text in s.configs],
         [("with the grid oracle", minima_line, range(len(inputs.configs)))]),
        (None, VERIFY_ROUNDS, False,
         lambda fc, s: [partial(verify_steps, fc, text, False) for text in s.configs],
         [("without it", minima_line, range(len(inputs.configs)))]),
        (f"enumerate_candidates, sum of per-spec minima over {BOUNDARY_ROUNDS} rounds:",
         BOUNDARY_ROUNDS, False,
         lambda fc, s: [partial(fc.enumerate_candidates, spec) for spec in s.boundary],
         [(f"box specs ({len(inputs.boundary)} specs)", minima_line, range(len(inputs.boundary)))]),
        *((f"ne_residual, sum of per-point minima over {NE_ROUNDS} rounds:" if d is None else None,
           NE_ROUNDS, False, lambda fc, s, d=d: [partial(ne_outcome, fc, p) for p in s.ne[d]],
           [(f"{label:12} ({len(inputs.ne[d])} points)", minima_line, range(len(inputs.ne[d])))])
          for label, d in (("box", None), ("+-6 decades", 6), ("+-30 decades", 30))),
    ]


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = {"parent": load(argv[1], "fc_parent"), "control": load(argv[1], "fc_control"),
             "change": load(argv[2], "fc_change")}
    windows = alpha_crit_windows(sides["parent"].detect_alpha_crit(1.0, 50.0, 0.1))
    given = {name: side_inputs(fc, windows) for name, fc in sides.items()}
    for what, outcome, agree in IDENTITIES:
        if not agree(*(outcome(sides[name], given[name]) for name in ("change", "parent"))):
            print(f"the change {what} than the parent", file=sys.stderr)
            return 1
    for header, rounds, each, calls, lines in sections(sides["parent"], given["parent"]):
        if header:
            print(header)
        times = timed({name: calls(fc, given[name]) for name, fc in sides.items()}, rounds, each)
        for label, line, picked in lines:
            print(line(label, {name: [runs[k] for k in picked] for name, runs in times.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
