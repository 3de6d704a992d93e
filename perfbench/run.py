#!/usr/bin/env python3
"""Build and run greenhetero's benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload rack-year-comb5 --seed 42 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (its build cache
included, so nothing is written outside the checkout) and then run from
the repository root. Its standard output passes through unchanged: the
last line is the JSON result. The exit code is the program's, or 2 when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        bench = subprocess.run(
            [BINARY, *sys.argv[1:]],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
