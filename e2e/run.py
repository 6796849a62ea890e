#!/usr/bin/env python3
"""End-to-end benchmark of the SPICE reproduction (see e2e/README.md).

Run from the repository root:

    python3 e2e/run.py --workload fig4_sweep --seed 1 --seconds 30 --trace 0
    python3 e2e/run.py --selftest

Builds the program and the benchmark in Release from e2e/CMakeLists.txt
into $CARGO_TARGET_DIR (default .bench_build), runs one workload in one
process, and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json for --trace 0, its per-layer metrics for
--trace 1. Exits non-zero when a check fails, and without a result when
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"e2e: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    """Configure once, then bring `target` up to date; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                # No half-written cache: the next run configures afresh.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail(f"configure failed (is {os.path.join(ROOT, 'src')} present?)")
        jobs = str(os.cpu_count() or 1)
        command = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
        if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            with open(log_path) as text:
                sys.stderr.write("".join(text.readlines()[-40:]))
            fail(f"build of {target} failed; log in {log_path}")
    return os.path.join(build_dir, target)


def source_facts():
    """Git sha when available, and a digest of the sources either way."""
    # The ceiling keeps git from answering with an enclosing repository's sha.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, env=env).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for top in ("src", "e2e"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return [f"git_sha: {sha}", f"source_sha256: {digest.hexdigest()[:16]}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that every output check rejects a corrupted result")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.selftest:
        binary = build(build_dir, "spice_e2e_selftest")
        sys.exit(subprocess.run([binary]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    catalog = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(build_dir, "spice_e2e")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    for fact in source_facts():
        print(f"host {fact}")
    sys.stdout.flush()

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    result = None
    for line in run.stdout.splitlines():
        if line.startswith("E2E_RESULT "):
            result = json.loads(line[len("E2E_RESULT "):])
        else:
            print(line)
    if result is None or run.returncode not in (0, 1):
        fail(f"workload {args.workload} ended without a result (exit {run.returncode})")

    metrics = {}
    for metric in catalog:
        value = result["values"].get(metric["name"])
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {metric['name']} missing")
            value = 0.0  # a layer this workload does not exercise
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
