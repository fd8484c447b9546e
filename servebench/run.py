#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 servebench/run.py --workload unique_miss --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/servebench (CMake, the repository's own
RelWithDebInfo build plus the servebench binary); span files from traced
runs go to .bench_out/. The binary's last stdout line is the JSON result.
Build output goes to stderr so that line stays last.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("unique_miss", "hot_hit", "hot_routed")
# The binary needs about --seconds plus set-up, answer checks and, when
# traced, the in-process probes; the timeout only stops a hung run.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Configures once, then builds servebench and the servers it starts."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("servebench: the dflow sources are not next to the benchmark",
              file=sys.stderr)
        return 2
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "servebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", os.path.join(BUILD, "dflow"), "--out-dir", OUT]
    sys.stdout.flush()
    # Own process group: on a timeout or a signal, servebench and every
    # server it started are killed together.
    bench = subprocess.Popen(command, start_new_session=True)

    def forward(signum, _frame):
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("servebench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
