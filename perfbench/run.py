#!/usr/bin/env python3
"""Builds and runs the cross-process pub/sub benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload camera_tcp --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the middleware libraries
from src/ plus the benchmark binary) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench.  Every run then checks its own hygiene,
prints a host and config block, the metrics by name with unit and sample
count, and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  It exits non-zero when a
payload failed verification, the subscriber process did not exit cleanly, a
shared-memory segment or arena block outlived the run, or a metric is
missing.  See perfbench/README.md for what each metric measures.
"""
import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = "perfbench"
BINARY = "rsf_perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", BINARY,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, BINARY)


def source_digest():
    """sha256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "msgs", "tools/sfmgen", BENCH_DIR):
        for path in sorted(glob.glob(os.path.join(top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no repository sources (src/) in the working directory")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, BENCH_DIR)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from the benchmark binary (exit {run.returncode})")
        return 1

    correct = bool(result["correct"]) and run.returncode == 0
    if run.returncode != 0:
        log(f"benchmark binary exited with status {run.returncode}")
    # Hygiene: no shm segment of this run's processes may outlive it
    # (segments are named rsf.<owner pid>.*).
    for pid in result.get("pids", []):
        for leftover in glob.glob(f"/dev/shm/rsf.{pid}.*"):
            log(f"leftover shared-memory segment {leftover}")
            correct = False
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        log(f"metrics missing from the run: {sorted(missing)}")
        correct = False

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **result.get("config", {}),
    }
    for line in lines[:-1]:
        print(line)
    print("config " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
