"""Benchmark of fleetcontest: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload casestudy --seed 1 --seconds 30 --trace 0

Workloads: casestudy, verify, multiregion (see perfbench/README.md).
With --trace 0 the result holds the end-to-end metrics; with --trace 1
the per-layer metrics of a separate traced run. The workload runs in a
single-threaded child process (worker.py) using the package sources
under src/; set-up is timed in SETUP_PROBES more fresh processes and
the median is reported. Each run also writes a record with the Python,
numpy and kernel-backend versions and the git commit to perfbench/out/.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Extra fresh processes that only set up, for the median of set-up time.
SETUP_PROBES = 8


def _git_sha(root):
    """Commit of the checkout read from .git, or "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, env, timeout_s):
    """Run worker.py with args; return its last output line parsed as JSON.

    A worker that outlives timeout_s is killed and the run fails.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout_s, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("casestudy", "verify", "multiregion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = SRC / "fleetcontest"
    if not (package / "__init__.py").is_file():
        print(f"error: no package sources at {package}", file=sys.stderr)
        return 2
    # Bytecode first, so that every timed import loads the package the same way.
    if not compileall.compile_dir(str(package), quiet=1):
        print("error: the package sources do not compile", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # A worker stops at three times --seconds when operations keep failing.
    timeout_s = 3 * args.seconds + 60
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    if not args.trace:
        probes = [_worker(common + ["--setup-only"], env, timeout_s)
                  for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, timeout_s)
    metrics = result["metrics"]
    if not args.trace:
        probes.append({"setup_s": metrics["setup_s"][0], "raw_setup_s": result["raw"]["setup_s"][0]})
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
        result["raw"]["setup_s"] = (statistics.median(p["raw_setup_s"] for p in probes), "s")

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_samples=probes, git_sha=_git_sha(ROOT))
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} backend={result['backend']} "
          f"python={result['python']} numpy={result['numpy']} rounds={result['rounds']} "
          f"ops/round={result['ops_per_round']} timed_ops={result['timed_ops']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
