#!/usr/bin/env python3
"""Builds the HRDM end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 hrdm_bench/run.py --workload analytic --seed 1 --seconds 10 --trace 0

The library sources (src/) and the benchmark (hrdm_bench/) are compiled
into .bench_build/hrdm_bench on first use; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. See hrdm_bench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("analytic", "ingest_recover")
RUN_TIMEOUT_S = 175


def fail(message):
    print("hrdm_bench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit hash)."""
    h = hashlib.sha256()
    for top in ("src", "hrdm_bench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_hash(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "query", "plan.h")):
        fail("library sources not found under " + os.path.join(root, "src"))
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "hrdm_bench")
    try:
        build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: " + str(e))

    cmd = [os.path.join(build_dir, "hrdm_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(build_root, "work"),
           "--commit", commit_hash(root),
           "--source-digest", source_digest(root)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
