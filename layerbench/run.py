#!/usr/bin/env python3
"""Build and run the layer-attributed benchmark of the cutting service.

Run from the root of a checkout:

    python3 layerbench/run.py --workload paper_fig4 --seed 1 --seconds 50 --trace 0
    python3 layerbench/run.py --selftest

The first run configures and builds the library and the benchmark from
source into .bench_build/layerbench (Release); later runs only check that the
build is up to date. Build output goes to stderr, so the benchmark's own
stdout, whose last line is the JSON result, passes through unchanged.
Traces and the machine context are written to .bench_build/layerbench/out.

--selftest builds and runs the benchmark's unit tests, then runs every
workload briefly with --trace 0 and 1 and checks that each prints exactly
the metrics BENCHMARK.json names, with their units.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
OUT = os.path.join(BUILD, "out")
RUN_TIMEOUT_S = 175
# Every workload the benchmark implements; BENCHMARK.json lists the ones the
# regression gate runs.
WORKLOADS = ("paper_fig4", "chain12_cold", "qaoa_repeat")


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("layerbench: no repository sources next to the benchmark", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 8))
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.call(command, stdout=sys.stderr) == 0


def binary(name):
    return os.path.join(BUILD, name)


def run_benchmark(args):
    os.makedirs(OUT, exist_ok=True)
    command = [binary("layerbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    # Own process group, so a timeout also stops the epoch child processes.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print("layerbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def selftest():
    if subprocess.call([binary("layerbench_test")]) != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    os.makedirs(OUT, exist_ok=True)
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [binary("layerbench"), "--workload", workload, "--seed", "7",
                       "--seconds", "2", "--trace", str(trace), "--out", OUT]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            ok = (done.returncode == 0 and result.get("correct") is True
                  and printed == expected[trace])
            print("%-4s %s --trace %d" % ("ok" if ok else "FAIL", workload, trace))
            if not ok:
                failed += 1
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                print("  exit %d, missing %s, extra %s" % (done.returncode, missing, extra))
                sys.stderr.write(done.stderr)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    targets = ["layerbench", "layerbench_test"] if args.selftest else ["layerbench"]
    if not build(targets):
        print("layerbench: build failed", file=sys.stderr)
        return 1
    return selftest() if args.selftest else run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
