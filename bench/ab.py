#!/usr/bin/env python3
"""A/B the request-level benchmark against a base revision.

Usage, from the root of the repository:

    python3 bench/ab.py --base REV --workload W [--n 10]

or `make bench-ab BASE=REV W=WORKLOAD N=10`.

Unpacks REV with `git archive` into a temporary directory (under
$TMPDIR) and compares it with this checkout, working tree included.
Each side runs its own

    python3 perfbench/run.py --workload W --seed 777 --seconds T --trace 0

N times, in alternating pairs. W is one of the workloads that
BENCHMARK.json lists, T is its "run_seconds", and 777 is the seed that
bench/counts.json records. The base goes first in even pairs and the
change in odd ones, so drift of the host hits both sides alike. For
every end-to-end metric that BENCHMARK.json declares, prints the median
and interquartile range of each side, the relative change of the
median, and in how many pairs the change was better. A metric is
flagged "worse" when its median moved the wrong way by more than the
metric's bound, and "unresolved" when either side's IQR exceeds the
bound (relative to its median) and the change's runs do not all beat
the base's.

The last line of standard output is one JSON object with every run's
values, for the record. Exits 1 when a run fails (a nonzero exit, an
incorrect response, or a nonzero "failed" count) or a metric is flagged
worse; 0 otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 777


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, **kw)


def unpack(rev, dest):
    archive = git("archive", "--format=tar", rev, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build(side):
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(
        ["dune", "build", "--root", side, "./perfbench/main.exe"],
        cwd=side, env=env, stdout=sys.stderr, stderr=sys.stderr, check=True,
    )


def run(side, workload, seconds):
    proc = subprocess.run(
        [
            sys.executable, os.path.join(side, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=side, stdout=subprocess.PIPE, text=True,
    )
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        return None
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"ok": ok, "failed": result["failed"], "values": values}


def spread(xs):
    if len(xs) < 2:
        return xs[0], 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q3 - q1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--n", type=int, default=10, help="number of pairs")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("--n must be at least 1")
    try:
        rev = git("rev-parse", "--verify", "--quiet", args.base + "^{commit}",
                  stdout=subprocess.PIPE, text=True).stdout.strip()
    except subprocess.CalledProcessError:
        ap.error(f"--base {args.base!r} names no git revision")

    tmp = tempfile.mkdtemp(prefix="bench-ab-")
    try:
        unpack(rev, tmp)
        sides = {"base": tmp, "change": ROOT}
        for side in sides.values():
            build(side)
        runs = {"base": [], "change": []}
        for i in range(args.n):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                r = run(sides[name], args.workload, seconds)
                if r is None:
                    r = {"ok": False, "failed": None, "values": {}}
                runs[name].append(r)
                print(f"pair {i + 1}/{args.n} {name}: "
                      + ("ok" if r["ok"] else "FAILED"), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bad = False
    for name, rs in runs.items():
        failed = [r for r in rs if not r["ok"]]
        if failed:
            bad = True
            print(f"FAIL: {len(failed)} of {len(rs)} {name} runs failed")
    print(f"{args.workload}: base {rev[:12]} vs change, {args.n} pairs, "
          f"seed {SEED}, {seconds:g} s per run")
    print(f"{'metric':<16} {'base median':>12} {'base IQR':>10} "
          f"{'change median':>14} {'change IQR':>11} {'change':>8} {'wins':>6}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [
            (b["values"][name], c["values"][name])
            for b, c in zip(runs["base"], runs["change"])
            if name in b["values"] and name in c["values"]
        ]
        if not pairs:
            print(f"{name:<16} no values")
            bad = True
            continue
        bs, cs = [b for b, _ in pairs], [c for _, c in pairs]
        (bm, biqr), (cm, ciqr) = spread(bs), spread(cs)
        rel = (cm - bm) / bm if bm else 0.0
        wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
        worse = (rel if lower else -rel) > m["bound"]
        bad = bad or worse
        # A spread wider than the bound cannot resolve a move within it,
        # unless every change run beats every base run.
        wide = max(biqr / bm if bm else 0.0, ciqr / cm if cm else 0.0) > m["bound"]
        beats_all = max(cs) < min(bs) if lower else min(cs) > max(bs)
        note = "worse" if worse else "unresolved" if wide and not beats_all else ""
        print(f"{name:<16} {bm:>12.4g} {biqr:>10.3g} {cm:>14.4g} {ciqr:>11.3g} "
              f"{rel:>+8.1%} {f'{wins}/{len(pairs)}':>6}  {note}".rstrip())
    print(json.dumps({
        "workload": args.workload, "base": rev, "seed": SEED,
        "seconds": seconds,
        "runs": {k: [{"failed": r["failed"], **{m["name"]: r["values"].get(m["name"])
                                                 for m in metrics}} for r in v]
                 for k, v in runs.items()},
    }))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
