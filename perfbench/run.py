#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A benchmark run builds perfbench/ (CMake, Release) into .bench_build/,
runs one workload, prints a summary, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metrics are the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. The exit code is 0 only when every operation and
output check passed. --self-test builds and runs perfbench's own tests.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def require_sources():
    """The benchmark measures the library next to it; without it, fail."""
    needed = [ROOT / "src" / "tuning" / "search.hpp", ROOT / "bench" / "harness.cpp",
              BENCH_DIR / "CMakeLists.txt", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        log("perfbench: not in a full checkout, missing: " + ", ".join(missing))
        sys.exit(2)


def build(build_dir, target, extra_cmake_args=()):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *extra_cmake_args]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / target


def load_benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def summarize(report, wanted):
    info = report.get("info", {})
    log(f"workload {report['workload']} seed {report['seed']} "
        f"seconds {report['seconds']} trace {int(report['trace'])}")
    for key in ("input_sets", "streams", "interactive_samples",
                "interactive_tail_percentile", "interactive_tail_over",
                "service_evictions", "service_hit_rate"):
        if key in info:
            log(f"  {key}: {json.dumps(info[key])}")
    attempted, failed = report["attempted"], report["failed"]
    log(f"  operations and checks: {attempted} attempted, {failed} failed "
        f"(ops_failed_frac {failed / attempted if attempted else 0:.6g})")
    for failure in report.get("failures", []):
        log(f"  FAILED: {failure['what']}")
    for spec in wanted:
        m = report["metrics"][spec["name"]]
        log(f"  {spec['name']:34s} {m['value']:.6g} {m['unit']}")


def run_benchmark(args):
    require_sources()
    spec = load_benchmark_spec()
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    binary = build(BUILD_DIR, "perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    if proc.returncode not in (0, 1):
        log(f"perfbench: the benchmark program exited with {proc.returncode}")
        return 2
    report = json.loads(proc.stdout)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or not in {m['unit']}")
            return 2
        value = got["value"]
        if value is None or not math.isfinite(value):
            log(f"perfbench: metric {m['name']} is not a finite number")
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    summarize(report, wanted)
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def run_self_test():
    require_sources()
    binary = build(BUILD_DIR / "selftest", "perfbench_selftest",
                   ["-DPERFBENCH_SELFTEST=ON"])
    return subprocess.run([str(binary)], timeout=900).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return run_benchmark(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            json.JSONDecodeError, OSError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
