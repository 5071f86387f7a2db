#!/usr/bin/env python3
"""Builds the SparkXD benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <pipeline_n400|infer_n3600|serve_n400> \
        [--seed N] [--seconds N] [--trace 0|1]

The benchmark is the Cargo package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root) and run with every SPARKXD_* variable unset, so the
engine uses its defaults; the variables that were set are printed first.
The last line of standard output is the result. The exit code is the
build's when it fails, else the benchmark's.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within this many seconds once built.
RUN_TIMEOUT_S = 175


def git_rev():
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 and rev.stdout.strip() else "unknown"


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARKXD_")}
    cleared = {k: v for k, v in sorted(os.environ.items()) if k.startswith("SPARKXD_")}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_GIT_REV"] = git_rev()
    print(json.dumps({"cleared_env": cleared}), flush=True)
    binary = os.path.join(target, "release", "sparkxd-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
