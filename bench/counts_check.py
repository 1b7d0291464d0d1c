#!/usr/bin/env python3
"""Check the request benchmark's deterministic work counts exactly.

Usage, from the root of the repository:

    python3 bench/counts_check.py [bench/counts.json]

For every workload recorded in the counts file, runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 1

and compares each metric whose unit is "count" (derive calls, cache
hits and evictions, engine calls, B&B nodes, float pivots, certify
fallbacks, unproven results) with the recorded value. The traced pass
that produces them is fixed by the seed, so any difference means the
code does different work. Prints a diff and exits 1 on a mismatch, a
missing or extra count, or a failed run; exits 0 when all match.

A change that moves a count on purpose re-records the file: the
observed counts are printed as JSON on a mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def observed_counts(workload, seed, seconds):
    proc = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return None
    metrics = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])["metrics"]
    return {
        name: m["value"] for name, m in metrics.items() if m["unit"] == "count"
    }


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "bench", "counts.json")
    with open(path) as f:
        recorded = json.load(f)
    seed, seconds = recorded["seed"], recorded["seconds"]
    failed = False
    observed_all = {}
    for workload, want in recorded["workloads"].items():
        got = observed_counts(workload, seed, seconds)
        if got is None:
            print(f"FAIL: {workload}: perfbench run failed")
            failed = True
            continue
        observed_all[workload] = got
        diff = [
            f"  {name}: recorded {want.get(name, '-')}, observed {got.get(name, '-')}"
            for name in sorted(set(want) | set(got))
            if want.get(name) != got.get(name)
        ]
        if diff:
            print(f"FAIL: {workload} work counts differ from {os.path.relpath(path, ROOT)}")
            print("\n".join(diff))
            failed = True
        else:
            print(f"ok: {workload} ({len(want)} counts)")
    if failed:
        print("observed counts:")
        print(json.dumps(observed_all, indent=2))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
