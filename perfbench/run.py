#!/usr/bin/env python3
"""Builds the cnvm benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scale-16c8ch --seed 1 --seconds 30 --trace 0

The benchmark package (perfbench/CMakeLists.txt) is configured and built
in .bench_build/perfbench, Release, on first use; later runs rebuild
only what changed. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Every argument goes
unchanged to the benchmark program (cnvm_perfbench), which checks them
and owns their defaults; `--help` lists them. A traced run writes its
spans under .bench_build/traces.

Exit status: 0 when every op passed its check; non-zero when the build
fails, an argument is wrong, an op fails, or the run overruns its time
limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "cnvm_perfbench")

# The program measures for at most 60 s and each pass takes at most
# ~12 s, so a healthy run ends well inside this limit.
RUN_LIMIT_S = 175


def build():
    """Configures (idempotent) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "cnvm_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY] + sys.argv[1:] + ["--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    try:
        # run() kills the child on timeout and waits for it to end.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
