"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--trace 0]

Runs are made one after another.  For each metric it prints the median of
the runs and the interquartile distance as a share of that median
(statistics.quantiles(values, n=4)), beside the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

sys.path.insert(0, ".")

from perfbench.stats import spread  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    for name, vs in values.items():
        bound = bounds.get(name)
        s = spread(vs) if len(vs) >= 2 else float("nan")
        flag = " !" if bound and s > bound / 3 else ""
        print(f"{name:40s} median={statistics.median(vs):.6g} spread={s:.4f} bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
