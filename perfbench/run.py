#!/usr/bin/env python3
"""Open-loop serve::Engine benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/serve_bench
(and the repository libraries it links) from source into the build
directory, then runs one workload and relays its output.  The last line of
standard output is the JSON result; build logs and diagnostics go to
standard error.  Exits non-zero, without a result line, when the build or
the run fails.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root.  The spans of the latest --trace 1 run of
each workload land in <build dir>/traces/<workload>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("f32_mobilenet", "int8_mixed", "online_mobilenet")
RUN_TIMEOUT_S = 170
# Inference runs on one pool thread per engine worker so the figures do not
# depend on how many cores other tenants of the host leave idle.
POOL_THREADS = "1"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds serve_bench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configure that failed part-way leaves a cache but no build files.
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "--target", "serve_bench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return None
    binary = os.path.join(build_dir, "serve_bench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command.append("--trace-out=" + os.path.join(trace_dir, f"{args.workload}.jsonl"))
    env = dict(os.environ, NSHD_THREADS=POOL_THREADS)
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
