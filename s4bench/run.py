#!/usr/bin/env python3
"""Builds and runs the S4 repository benchmark.

    python3 s4bench/run.py --workload smallfile --seed 1 --seconds 10 --trace 0
    python3 s4bench/run.py --self-test

The benchmark is a C++ program (s4bench/*.cc) linked against the S4 libraries
in src/. It is built from source into .bench_build/ at the repository root on
first use; later runs only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. With --trace 1 the
spans of the first traced round are written to .bench_build/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "s4bench")


def run_logged(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("s4bench: no S4 sources next to the benchmark (src/ is missing)",
              file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", BUILD, "--target", "s4bench", "-j", "4"]
    for attempt in range(2):
        if attempt == 1:
            # A build tree left by another checkout or generator: start over.
            shutil.rmtree(BUILD, ignore_errors=True)
        fresh = not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
        if fresh and run_logged(configure) != 0:
            continue
        if run_logged(compile_) == 0:
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["smallfile", "timetravel", "array"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="test the benchmark's own code instead of measuring")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return subprocess.call([BINARY, "--self-test"])
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
