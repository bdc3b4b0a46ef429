#!/usr/bin/env python3
"""Build the step benchmark from source, then run it.

    python3 stepbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark and the library sources it links
are built with CMake into $CARGO_TARGET_DIR/stepbench (default
.bench_build/stepbench); build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.

The defaults come from BENCHMARK.json: --seconds is its run_seconds, and
--workload all runs each of its workloads, one stepbench process per
workload, so that process-wide figures such as peak_rss_mb belong to one
workload. Their metrics are merged into one JSON line, each name prefixed
with its workload. A workload that BENCHMARK.json does not list, such as
deep_powersgd_latency, runs only when named. The exit code is 0 when every
check passed, 1 when one failed, 2 when the build or the arguments failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # per workload process


def fail(message):
    print("stepbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        return int(spec["run_seconds"]), [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read run_seconds and workloads from %s: %s" % (path, e))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "stepbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit(2)
    return os.path.join(build_dir, "stepbench")


def run_one(cmd):
    """Runs one stepbench process; returns (exit code, its JSON result or None)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        print("stepbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    for line in lines:
        print(line)
    return proc.returncode, result


def main():
    run_seconds, gated = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default=str(run_seconds))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "stepbench")
    exe = build(build_dir)
    names = gated if args.workload == "all" else [args.workload]

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        cmd = [exe, "--workload", name, "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--trace-dir", os.path.join(build_dir, "traces")]
        sys.stdout.flush()
        code, result = run_one(cmd)
        worst = max(worst, code if code > 0 else 1 if code < 0 else 0)
        if result is None:
            worst = max(worst, 1)
            merged["correct"] = False
            continue
        if len(names) == 1:
            merged = result
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][name + "." + metric] = value
    if merged["attempted"] > 0:
        print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
