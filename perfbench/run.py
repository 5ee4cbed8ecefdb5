#!/usr/bin/env python3
"""Builds the leodivide benchmark harness from this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness and the library are built with
CMake under .bench_build/ (configured once, rebuilt incrementally on every
call; the build log is .bench_build/build.log). All remaining arguments go to
the harness, whose last stdout line is the JSON result. Exits 2 without a
result when the library sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
LOG = os.path.join(ROOT, ".bench_build", "build.log")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "leodivide")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} in {ROOT}: run from the root of a leodivide "
                 "checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    # The Makefile appears only once configuring succeeded.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(LOG, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed, see {LOG}")


def main():
    build()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
