#!/usr/bin/env python3
"""Build and run the request-level benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hot|cold|corpus --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build compiles the whole
repository), runs it, and passes its output through. The last line of
standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics". The exit code is 0 only when every
response passed the correctness oracle and every self-test held.

Exits 2, printing no result, when the repository sources are missing
(for example in a directory that holds only the benchmark).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("hot", "cold", "corpus")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"no {needed} at {ROOT}: run from a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=840,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    proc = subprocess.run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        die(f"main.exe exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
