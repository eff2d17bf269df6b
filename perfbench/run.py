#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper, fleet-lossy, fleet-mobile, live-updates (see
BENCHMARK.json for why each exists). Every run configures and builds
perfbench/CMakeLists.txt, which compiles the library from src/, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); only the
first run compiles everything. Build output goes to stderr. The benchmark's
own output goes to stdout; its last line is the JSON result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. The line before it is a JSON report with the host block,
every sample, the correctness gates and (traced) the spans.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper", "fleet-lossy", "fleet-mobile", "live-updates")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Wall-clock limit for one benchmark process (the build is not counted).
RUN_TIMEOUT_S = 170


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(root):
    """Configures and builds the benchmark; returns the build dir. The
    configure step runs every time: it is quick once cached, and it fails
    instead of silently building another tree's sources when the build
    directory was configured elsewhere."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources under %s/src: run from the "
                           "root of a checkout" % root)
    out = build_dir(root)
    subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def git_sha(root):
    """HEAD of the checkout, or "none" outside a git work tree (never the
    sha of an enclosing repository)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def check_result(result, metric_names):
    """Raises ValueError unless `result` is a well-formed result object
    carrying exactly `metric_names`."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError("result keys must be %s" % sorted(RESULT_KEYS))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s must be an integer" % key)
    if result["attempted"] < 1 or not 0 <= result["failed"]:
        raise ValueError("attempted must be >= 1 and failed >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(metric_names):
        raise ValueError("metrics differ from BENCHMARK.json: %s" %
                         sorted(set(metrics) ^ set(metric_names)))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["unit"], str) or \
                not isinstance(m["value"], (int, float)) or \
                isinstance(m["value"], bool):
            raise ValueError("metric %s must be {value: number, unit: str}" % name)


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    try:
        out = build(root)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(root)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        check_result(json.loads(lines[-1]),
                     declared_metrics(root, args.trace == 1))
    except (ValueError, IndexError) as e:
        sys.stdout.write(run.stdout)
        print("perfbench: malformed result: %s" % e, file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
