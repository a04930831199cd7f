#!/usr/bin/env python3
"""Build memhog's benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The OCaml benchmark is built with dune into .bench_build/ (the shared dune
cache is disabled, so nothing is written outside the checkout), then this
process is replaced by it.  Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.  A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".",
         "--build-dir", os.path.abspath(BUILD_DIR),
         "--profile", "release", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode,
              file=sys.stderr)
        sys.exit(1)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
