"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:

    python3 bench/smoke.py

Asserts that each run exits 0, that every check passes, and that the
metrics are exactly the ones ``BENCHMARK.json`` names (end-to-end for
``--trace 0``, per-layer for ``--trace 1``), each a finite number with the
declared unit. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: checks failed\n{proc.stderr}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{where}: {name} is not a finite number: {m['value']!r}")
        if name in declared and m["unit"] != declared[name]:
            errors.append(f"{where}: {name} unit {m['unit']!r} != {declared[name]!r}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(workload, trace, declared[trace])
            print(f"{workload} --trace {trace}: {'FAIL' if errors else 'ok'}")
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
