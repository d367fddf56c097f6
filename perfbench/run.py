#!/usr/bin/env python3
"""Control-plane benchmark: build the meshopt library from source, run one
workload, check its outputs, and print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Workloads: live_testbed, replay_city,
serve_2000 (manifest.json says what each loads and why).
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the exit code is
nonzero when the build fails or any output check fails.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. At the default seed the warm-up pass's exact-tier plan
digests and fast-tier objectives must match references.json;
--record-references rewrites that workload's entry instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
DEFAULT_SEED = 1
WORKLOADS = ("live_testbed", "replay_city", "serve_2000")
RUN_TIMEOUT_S = 170
FAST_RTOL = 1e-6


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "meshbench")


def check_references(workload, warmup):
    """Compare warm-up outputs with the stored references; list mismatches."""
    with open(REFERENCES) as f:
        ref = json.load(f).get(workload)
    if ref is None:
        return [f"no references for {workload}"]
    problems = []
    if warmup["exact_digests"] != ref["exact_digests"]:
        problems.append(f"exact digests {warmup['exact_digests']} != "
                        f"{ref['exact_digests']}")
    if warmup["fast_objectives"].keys() != ref["fast_objectives"].keys():
        problems.append("fast objective names differ from the references")
    for name, want in ref["fast_objectives"].items():
        got = warmup["fast_objectives"].get(name)
        if got is None or abs(got - want) > FAST_RTOL * max(abs(want), 1e-300):
            problems.append(f"fast objective {name}: {got} vs {want}")
    return problems


def record_references(workload, warmup):
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as f:
            refs = json.load(f)
    refs[workload] = warmup
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="store this run's warm-up outputs as the references "
                         "(default seed only)")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"perfbench: no output (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"perfbench: malformed result line (exit {proc.returncode})")

    warmup = result.pop("warmup")
    if args.seed == DEFAULT_SEED:
        if args.record_references:
            record_references(args.workload, warmup)
        for problem in check_references(args.workload, warmup):
            print(f"reference mismatch: {problem}")
            result["correct"] = False
    elif args.record_references:
        sys.exit("perfbench: references are recorded at the default seed")
    result["correct"] = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
