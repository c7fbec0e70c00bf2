#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow_jpeg8 --seed 37 --seconds 20 --trace 0

Workloads: flow_jpeg8, flow_jpeg16, serve_mix. The build goes to
.bench_build/ in the checkout; its log goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero when the build fails or any correctness check fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def main():
    # keep every build artifact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune()
        + ["build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
