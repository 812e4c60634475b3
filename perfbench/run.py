#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark driver and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the healer libraries and the driver from source into
.bench_build/ (later runs rebuild incrementally). The driver measures the
workload for --seconds of host time and checks the campaign outputs. This
script prints every metric by name with its unit, the correctness verdict
and the host facts, writes the full result to
.bench_build/results/<workload>-seed<n>-trace<t>.json, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json when --trace 0, its per-layer
metrics when --trace 1. It exits non-zero when the build fails, the driver
fails, or any correctness check fails.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("single-cold", "single-resume", "workers", "shards")
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no healer sources at %s/src; run from a checkout"
            % ROOT)
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_driver"])
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log("perfbench: build failed, see %s"
                    % os.path.join(BUILD_DIR, "build.log"))
                sys.exit(2)
    return os.path.join(BUILD_DIR, "perfbench_driver")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = metric_names(args.trace)

    driver = build()
    workdir = os.path.join(BUILD_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %d s" % DRIVER_TIMEOUT_S)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: driver exited with %d" % proc.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])

    correct = result["correct"] and proc.returncode == 0
    failures = list(result["failures"])
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            failures.append("metric %s missing" % name)
            correct = False
            continue
        metrics[name] = result["metrics"][name]
        if metrics[name]["value"] is None:
            failures.append("metric %s is not a number" % name)
            correct = False
    if result["attempted"] < 1:
        failures.append("no executions attempted")
        correct = False

    facts = result["facts"]
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: " + ", ".join("%s=%s" % kv for kv in sorted(facts.items())))
    for note in result["notes"]:
        print("  # " + note)
    for name in names:
        if name in metrics:
            print("  %-36s %.6g %s" % (name, metrics[name]["value"],
                                        metrics[name]["unit"]))
    print("executions attempted %d, failed %d (failed share %.6g)"
          % (result["attempted"], result["failed"],
             result["failed"] / max(1, result["attempted"])))
    for failure in failures:
        print("  FAILED: " + failure)

    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "facts": facts,
              "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "failures": failures,
              "metrics": result["metrics"], "notes": result["notes"]}
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
