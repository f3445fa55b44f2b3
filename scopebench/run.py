#!/usr/bin/env python3
"""Builds and runs the scope-server benchmark from the root of a checkout.

    python3 scopebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures the CMake package in scopebench/ (which compiles the library from
the checkout's src/) into .bench_build/scopebench, builds the benchmark
binary, runs it and relays its output; the last line of standard output is
the JSON result.
Build output goes to standard error.  Exits non-zero without a result when
the sources are missing or the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scopebench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scopebench-scratch")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "stream_server.h")):
        sys.stderr.write("scopebench: gscope sources (src/) not found next to scopebench/\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "scopebench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode != 0:
            return False
    return True


def main():
    if not build():
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    exe = os.path.join(BUILD, "scopebench")
    proc = subprocess.run([exe, "--scratch", SCRATCH] + sys.argv[1:], stdout=subprocess.PIPE,
                          timeout=175)
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
