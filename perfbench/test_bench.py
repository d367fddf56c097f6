#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/test_bench.py [workload ...]

For each workload (default: all), runs the traced run twice on one seed and
requires identical deterministic work counts, every per-layer metric that
BENCHMARK.json lists (with its unit), and ledger.coverage within
[0.9, 1.1]. Exits nonzero on any failure. Run from the repository root.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
# Per-layer metrics that are pure functions of the seed: the work counts and
# the ratios of two counts. Times are not.
COUNT_RATIOS = {"mac.tx_success_ratio", "model.cache_hit_ratio",
                "serve.shed_ratio", "serve.coalesced_ratio",
                "guard.repaired_ratio"}


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(out.stdout.splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed its checks")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    failures = []
    for workload in workloads:
        first, second = traced_run(workload), traced_run(workload)
        for name, unit in layer_units.items():
            if name not in first or first[name]["unit"] != unit:
                failures.append(f"{workload}: {name} missing or not in {unit}")
        counts = [n for n, m in first.items()
                  if m["unit"] == "count" or n in COUNT_RATIOS]
        drift = [n for n in counts if first[n]["value"] != second[n]["value"]]
        if drift:
            failures.append(f"{workload}: counts differ across runs: {drift}")
        coverage = first["ledger.coverage"]["value"]
        if not 0.9 <= coverage <= 1.1:
            failures.append(f"{workload}: ledger.coverage {coverage}")
        print(f"{workload}: {len(counts)} work counts compared, "
              f"ledger.coverage {coverage:.4f}")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
