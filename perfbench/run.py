#!/usr/bin/env python3
"""PACOR benchmark: builds the harness, runs one workload, prints the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload fpva_escape|lm_congested|serve_mix \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the router's libraries
plus the harness) into .bench_build/; later runs only rebuild what
changed. The harness prints its report as one JSON line; this script
checks the solution hashes it reports against earlier runs of the same
binary, and prints the result line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run (its spans land in
.bench_build/traces/<workload>.json). Build output and the harness's
summary go to stderr.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "pacor_perfbench")
WORKLOADS = ("fpva_escape", "lm_congested", "serve_mix")
GOLDEN = os.path.join("tests", "golden", "solution_hashes.txt")


def harness_timeout_s(seconds):
    """A harness run takes about 1.1 times its window plus a few seconds of
    set-up and checks; this leaves room for a slow host, and at 30 s still
    ends the run within 180 s."""
    return 125 + 1.5 * seconds


def build():
    """Configures and builds the harness; returns False on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", CMAKE_BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_BUILD, "--parallel", str(min(4, os.cpu_count() or 1))],
    ]
    return all(subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
               for step in steps)


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_repeat(hashes):
    """Solution hashes must repeat across runs of one binary; returns misses."""
    store_path = os.path.join(BUILD, "hashes.json")
    binary = file_sha256(BINARY)
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as f:
            store = json.load(f)
    known = store.get(binary, {})
    misses = [d for d, h in hashes.items() if known.get(d, h) != h]
    for design in misses:
        print(f"perfbench: FAIL {design}: solution differs from an earlier run",
              file=sys.stderr)
    known.update(hashes)
    with open(store_path + ".tmp", "w") as f:
        json.dump({binary: known}, f)
    os.replace(store_path + ".tmp", store_path)
    return len(misses)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1

        out_dir = os.path.join(".bench_build", "out", f"{args.workload}-{os.getpid()}")
        os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)
        try:
            proc = subprocess.run(
                [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out-dir", out_dir, "--golden", GOLDEN],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=harness_timeout_s(args.seconds))
            trace = os.path.join(ROOT, out_dir, f"trace-{args.workload}.json")
            if os.path.exists(trace):
                os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
                os.replace(trace, os.path.join(BUILD, "traces", f"{args.workload}.json"))
        except subprocess.TimeoutExpired:
            print("perfbench: harness timed out", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(os.path.join(ROOT, out_dir), ignore_errors=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"perfbench: harness exited with {proc.returncode}", file=sys.stderr)
            return 1
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        repeat_misses = check_repeat(report["hashes"])

    failed = report["failed"] + repeat_misses
    metrics = report["metrics"]
    if "ok_ratio" in metrics:
        metrics["ok_ratio"]["value"] = (report["attempted"] - failed) / max(1, report["attempted"])
    print(json.dumps({
        "correct": report["correct"] and repeat_misses == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
