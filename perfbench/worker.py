"""Run one workload in this process and print its figures as one JSON line.

Started by run.py, one process per workload, with BLAS threads pinned
to 1. Set-up (imports, input generation, warm-up) is timed from the top
of this file. The workload's fixed list of operations is then repeated
as whole rounds until --seconds have passed and at least MIN_OPS timed
operations exist. Every output is checked after its timer stops, and
every time is corrected for host speed (see hostspeed.py).

With --trace 1, untraced and traced rounds alternate; per-layer figures
come from the traced rounds, and their extra wall time is the tracing
overhead. A traced run writes its spans to
perfbench/out/spans-<workload>-seed<n>-trace1.npz.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import fleetcontest as fc  # noqa: E402
from checks import CheckFailed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Timed operations a run needs so that ten lie beyond the 90th percentile.
MIN_OPS = 100

OUT = Path(__file__).resolve().parent / "out"


class Run:
    """Counts and timings of one run.

    Operation times are kept raw and corrected for host speed; the
    round's wall time is the sum of its operations' times.
    """

    def __init__(self, ops, speed):
        self.ops = ops
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.op_seconds = []
        self.raw_op_seconds = []

    def round(self, tracer=None):
        """Run every operation once; return the round's (corrected, raw) wall time."""
        wall = raw_wall = 0.0
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            self.attempted += 1
            factor = self.speed.factor()
            start = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # any error counts against the op, the run goes on
                out, error = None, exc
            else:
                error = None
            elapsed = perf_counter() - start
            wall += elapsed * factor
            raw_wall += elapsed
            if error is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error = exc
            if error is None:
                self.op_seconds.append(elapsed * factor)
                self.raw_op_seconds.append(elapsed)
            else:
                self._failure(op, error)
            self.speed.spent(elapsed)
        return wall, raw_wall

    def _failure(self, op, exc):
        self.failed += 1
        if not op.is_known_fault(exc):
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")

    @property
    def correct(self):
        return not self.errors


def _end_to_end(setup_s, walls, op_seconds, rss_mb):
    ms = [s * 1e3 for s in op_seconds]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args()

    build, warmup, kernel = WORKLOADS[args.workload]
    ops = build(np.random.default_rng(args.seed))
    warmup()
    raw_setup_s = perf_counter() - T0
    speed = HostSpeed(kernel)
    setup_s = raw_setup_s * speed.factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return
    run = Run(ops, speed)

    tracer = Tracer() if args.trace else None
    walls, traced_walls = [], []           # (corrected, raw) per round
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
            try:
                traced_walls.append(run.round(tracer))
            finally:
                tracer.uninstall()
        else:
            walls.append(run.round())
        elapsed = perf_counter() - start
        # A run that keeps failing stops at three times its length regardless.
        enough_ops = (len(run.op_seconds) >= MIN_OPS or tracer is not None
                      or elapsed >= 3 * args.seconds)
        enough_rounds = tracer is None or len(traced_walls) >= 2
        if elapsed >= args.seconds and enough_ops and enough_rounds:
            break
    if len(run.op_seconds) < 2:
        raise SystemExit(f"only {len(run.op_seconds)} operations succeeded: {run.errors[:3]}")

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "rounds": len(walls) + len(traced_walls),
        "ops_per_round": len(run.ops),
        "timed_ops": len(run.op_seconds),
        "backend": fc.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    result["calibration_s"] = {"min": min(speed.samples), "median": statistics.median(speed.samples),
                               "max": max(speed.samples), "count": len(speed.samples)}
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = _end_to_end(setup_s, [w for w, _ in walls], run.op_seconds, rss_mb)
        result["raw"] = _end_to_end(raw_setup_s, [r for _, r in walls], run.raw_op_seconds,
                                    rss_mb)
    else:
        # Layer times are raw; scale them like the traced rounds' wall time.
        scale = sum(w for w, _ in traced_walls) / sum(r for _, r in traced_walls)
        overhead = (statistics.median(w for w, _ in traced_walls)
                    - statistics.median(w for w, _ in walls))
        result["metrics"] = tracer.layer_metrics(len(traced_walls), overhead, scale)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-trace1.npz",
                     {"workload": args.workload, "seed": args.seed,
                      "traced_rounds": len(traced_walls)})
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
