#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload vli-coarse --seed 42 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune from the repository root, then runs
it with the same arguments.  The last line of standard output is the
result as one JSON object; build output and diagnostics go to standard
error.  Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/bench.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
