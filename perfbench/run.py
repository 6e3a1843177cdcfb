#!/usr/bin/env python3
"""Builds and runs the tcprx benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a tcprx source tree. The first run configures and builds the
simulator library, the benchmark binary and tcprx_sim into the build directory
($CARGO_TARGET_DIR if set, else .bench_build). Each run then:

  1. runs perfbench's tcprx_perfbench for the workload, which repeats it for
     --seconds of host time, checks every repetition, and prints its result;
  2. runs tcprx_sim on the same configuration and window, where the command line
     can express it, and checks that it prints the same simulated results;
  3. prints as its last line one JSON object: correct, attempted, failed, metrics.

With --workload all it runs every workload in turn and prints one result line each.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["stream_up_opt", "stream_smp4_base_lossy", "rr_xen_opt"]
TARGETS = ["tcprx_perfbench", "perfbench_tcprx_sim"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tcprx sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS)
    for step in steps:
        # Build output goes to stderr: the last line of stdout is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def run_workload(out, workload, seed, seconds, trace):
    args = [os.path.join(out, "tcprx_perfbench"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        reference = json.loads(line).get("reference")
        if reference is None:
            continue
        result["attempted"] += 1
        mismatch = check_reference(out, reference)
        if mismatch:
            print("check failed (tcprx_sim): " + mismatch, file=sys.stderr)
            result["failed"] += 1
            result["correct"] = False
    return result


def check_reference(out, reference):
    """Runs tcprx_sim; returns a description of the first mismatch, or None."""
    args = [os.path.join(out, "perfbench_tcprx_sim")] + reference["args"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return "tcprx_sim exited with code %d" % proc.returncode
    printed = json.loads(proc.stdout)
    for key, want in reference["expect"].items():
        if printed.get(key) != want:
            return "%s: tcprx_sim printed %s, the benchmark measured %s" % (
                key, printed.get(key), want)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build()
    workloads = WORKLOADS if opts.workload == "all" else [opts.workload]
    for workload in workloads:
        result = run_workload(out, workload, opts.seed, opts.seconds, opts.trace)
        if opts.workload == "all":
            print(workload + ": ", end="")
        print(json.dumps(result))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
