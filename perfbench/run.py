#!/usr/bin/env python3
"""Build the benchmark program with dune, then run it with these arguments.

    python3 perfbench/run.py --workload wan_recovery --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Build output goes to standard error; the program's standard output,
whose last line is the JSON result, passes through unchanged. See
perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def main():
    build = subprocess.run(
        # no shared dune cache: the build reads and writes only the checkout
        ["dune", "build", "--root", ROOT, "--cache=disabled", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
