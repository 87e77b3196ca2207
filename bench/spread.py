"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 bench/spread.py [--out summary.json]

It runs every workload of ``BENCHMARK.json`` with ``--trace 0`` on seeds
1..10. For each workload and end-to-end metric it prints the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. Every run must report
``correct``; a failed run stops the summary with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
        summary[workload] = {
            name: dict(summarise([r[name]["value"] for r in runs]), unit=m["unit"])
            for name, m in runs[0].items()
        }
        for name, s in summary[workload].items():
            print(f"{workload:7} {name:20} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
