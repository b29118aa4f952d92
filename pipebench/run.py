#!/usr/bin/env python3
"""Builds the pipeline benchmark from source, then runs one workload.

Usage (from the repository root):
    python3 pipebench/run.py --workload <ingest_local|ingest_unix|incident_mix>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark binary's standard output passes through unchanged; its last
line is the JSON result. Build output goes to standard error. The build
lives in $CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "pipebench")


def build(directory):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", directory, "--target", "pipebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, path-sorted."""
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    directory = build_dir()
    if not build(directory):
        print("pipebench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(directory, "pipebench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    # The program's own span tracer stays off; the benchmark times layers
    # from its own files.
    env = dict(os.environ, FCHAIN_TRACE="0")
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
