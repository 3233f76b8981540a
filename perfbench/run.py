#!/usr/bin/env python3
"""Builds the nnrt benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-warm --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and its output to
standard error; the benchmark's own standard output, whose last line is the
result JSON, passes through. A failed build exits non-zero without a result.
See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

# A run measures for --seconds (at most 60) and then exits; anything still
# running after this is a hang, killed so the caller gets an exit code.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(target, "release", "nnrt-perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 124


if __name__ == "__main__":
    sys.exit(main())
