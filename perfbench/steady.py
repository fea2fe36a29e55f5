"""Steadiness check: run each workload once per seed and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 [--label A]

Runs run.py for every workload of BENCHMARK.json with its run_seconds,
one run after another (never in parallel, so runs do not share
the two cores) and prints, for every end-to-end metric of every
workload, the median, the quartiles from statistics.quantiles(n=4) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json. The failed share of each workload must not vary.
The summary is also written to perfbench/out/steady-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--label", default="steady")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        values, shares = {}, set()
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            shares.add((result["failed"] / result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print(f"{workload:12s} {name:12s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.2%} bound {bounds[name]:.0%}", flush=True)
        summary[workload] = {"metrics": rows, "failed_shares": sorted(shares)}
        print(f"{workload:12s} failed shares {sorted(shares)}", flush=True)
        ok = ok and len(shares) == 1
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
