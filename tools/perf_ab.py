#!/usr/bin/env python3
"""Alternating A/B runs of the tcprx benchmark between two source trees.

    python3 tools/perf_ab.py --base <rev> --change <rev|.> --scratch <dir>
        [--workloads w1,w2] [--pairs N] [--seconds S] [--seed N] [--json BENCH_N.json]

Run from the root of a tcprx git checkout. Each side is a git revision, or "." for the
working tree as it stands (tracked and untracked files, ignored ones left out). Both
sides are copied into --scratch, a directory outside the checkout, and each builds its
own perfbench there (perfbench/run.py with CARGO_TARGET_DIR pointing into --scratch).

One invocation is one batch: N pairs per workload. Each pair runs the base and the change once each,
with the order alternating from pair to pair, so that drift in the host's speed falls
on both sides alike. For every end-to-end metric BENCHMARK.json declares, the batch
prints both medians, the base's interquartile range, the pairs the change won (its
value better in the metric's direction) and a verdict: "better" or "worse" when the
change won (or lost) at least nine pairs in ten and the medians differ by more than the
base's IQR, else "same". An A/A batch (--base X --change X) shows the noise floor.

--json writes the results as the skeleton of a BENCH_N.json: the batch filled in, the
"change", "claim" and "hardware" texts left for the author. If the file exists, the
batch is appended to its "batches", so running the tool again with the same --json
adds a batch.

Link order and environment padding are not randomised: each side is one build.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("perf_ab: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args, binary=False):
    proc = subprocess.run(["git", "-C", ROOT] + list(args), stdout=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        fail("git %s failed" % " ".join(args))
    return proc.stdout if binary else proc.stdout.decode()


def export_tree(side, dest):
    """Copies revision `side` ("." for the working tree) into the empty dir `dest`."""
    os.makedirs(dest)
    if side == ".":
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
        for name in filter(None, names):
            src = os.path.join(ROOT, name)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return
    archive = git("archive", "--format=tar", side, binary=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def prepare(scratch, label, side):
    """Exports one side into --scratch; returns (tree, build dir). The first run builds."""
    tree = os.path.join(scratch, label + "-src")
    build = os.path.join(scratch, label + "-build")
    # A fresh build: exported files keep their commit or working-tree times, which may
    # be older than the objects a previous export left, so make would reuse those.
    for path in (tree, build):
        if os.path.exists(path):
            shutil.rmtree(path)
    export_tree(side, tree)
    print("perf_ab: %s is %s, in %s" % (label, side, tree), file=sys.stderr)
    return tree, build


def run_once(tree, build, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("\n".join(proc.stderr.splitlines()[-20:]) + "\n")
        fail("%s in %s exited with code %d" % (workload, tree, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, base_runs, change_runs):
    """The batch's figures for one metric (dict with "better": lower|higher)."""
    name = metric["name"]
    base = [r["metrics"][name]["value"] for r in base_runs]
    change = [r["metrics"][name]["value"] for r in change_runs]
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    lost = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    pairs = len(base)
    verdict = "same"
    if abs(change_median - base_median) > iqr:
        if won * 10 >= pairs * 9:
            verdict = "better"
        elif lost * 10 >= pairs * 9:
            verdict = "worse"
    delta = (change_median - base_median) / base_median * 100 if base_median else 0.0
    return {
        "parent_median": base_median,
        "change_median": change_median,
        "delta_pct": round(delta, 2),
        "change_better_pairs": won,
        "change_worse_pairs": lost,
        "parent_iqr": iqr,
        "verdict": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help='git revision, or "." (working tree)')
    parser.add_argument("--scratch", required=True, help="work directory outside the checkout")
    parser.add_argument("--workloads", default="", help="comma-separated; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", default="", help="BENCH_N.json to write or extend")
    opts = parser.parse_args()
    if opts.pairs < 1 or opts.seconds < 1:
        fail("--pairs and --seconds must be >= 1")
    scratch = os.path.abspath(opts.scratch)
    if scratch == ROOT or scratch.startswith(ROOT + os.sep):
        fail("--scratch must be outside the checkout")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in opts.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    os.makedirs(scratch, exist_ok=True)
    sides = [prepare(scratch, "base", opts.base), prepare(scratch, "change", opts.change)]
    # One short run per side builds it before any timed run.
    for tree, build in sides:
        run_once(tree, build, workloads[0], opts.seed, 1)

    result = {"seconds": opts.seconds, "pairs": opts.pairs, "seed": opts.seed,
              "base": opts.base, "change": opts.change, "workloads": {}}
    for workload in workloads:
        runs = ([], [])
        for pair in range(opts.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                tree, build = sides[side]
                runs[side].append(run_once(tree, build, workload, opts.seed, opts.seconds))
        figures = {m["name"]: summarize(m, runs[0], runs[1]) for m in metrics}
        figures["all_correct"] = all(r["correct"] and r["failed"] == 0
                                     for r in runs[0] + runs[1])
        result["workloads"][workload] = figures
        print("%s  (%d pairs, %d s, correct: %s)" %
              (workload, opts.pairs, opts.seconds, figures["all_correct"]))
        for m in metrics:
            s = figures[m["name"]]
            print("  %-16s base %-12.6g change %-12.6g %+7.2f%%  iqr %-10.3g won %2d/%d  %s" %
                  (m["name"], s["parent_median"], s["change_median"], s["delta_pct"],
                   s["parent_iqr"], s["change_better_pairs"], opts.pairs, s["verdict"]))
        sys.stdout.flush()

    if opts.json:
        doc = {"change": "", "hardware": "", "command": "", "claim": "", "batches": []}
        if os.path.exists(opts.json):
            with open(opts.json) as f:
                doc = json.load(f)
        doc.setdefault("batches", []).append(result)
        doc["command"] = doc.get("command") or (
            "python3 tools/perf_ab.py --base <parent> --change <change> --pairs %d --seconds %d"
            " --seed %d" % (opts.pairs, opts.seconds, opts.seed))
        with open(opts.json, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
