#!/usr/bin/env python3
"""Paired A/B comparison of two commits on the simulator benchmark.

    python3 scripts/bench_ab.py BASE HEAD [--seed 1] [--workloads W[,W...]]

Run from the root of the checkout. BASE and HEAD are any commit-ish.
Each is exported with `git archive` into a tree of its own under
.bench_ab (base-<sha> and head-<sha>, so `bench_ab.py HEAD HEAD` builds
two trees of the same commit), and each tree keeps its own simbench
build (simbench/run.py builds it on the first run; a later invocation
reuses both). Then, per workload (all of BENCHMARK.json's by default),
it runs ten pairs of

    python3 simbench/run.py --workload W --seed N --seconds S --trace 0

one in each tree, alternating which side runs first; S is
BENCHMARK.json's run_seconds. Per workload it prints every pair's
HEAD/BASE ratio of host_s, each side's median and quartiles, and HEAD's
wins out of the ten pairs, then a verdict:

  GAIN     HEAD wins at least nine of the ten pairs (a tie counts for
           neither side) and the medians differ, in HEAD's favour, by
           more than the interquartile range of BASE's runs;
  LOSS     the same rule with the sides swapped;
  NO GAIN  otherwise.

Every other end-to-end metric is printed as the two medians, their
ratio and the metric's bound, marked WORSE when HEAD's median is worse
than BASE's by more than the bound, and UNRESOLVED when BASE's own
interquartile range is wider than the bound (unless every HEAD run
beats every BASE run). `bench_ab.py HEAD HEAD` must report no gain.
Exits 1 if an export or a run fails and 2 if a metric is WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_common import git, run_once

PAIRS = 10
WINS_FOR_GAIN = 9
METRIC = "host_s"
WORKDIR = ".bench_ab"


def export(commit, path):
    """Export @commit's tree into @path (kept if an export finished)."""
    done = os.path.join(path, ".bench_ab_exported")
    if os.path.exists(done):
        return
    os.makedirs(path, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    open(done, "w").close()


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, head, lower_better):
    """GAIN, LOSS or NO GAIN for the paired samples @base and @head."""
    def better(a, b):
        return a < b if lower_better else a > b

    head_wins = sum(better(h, b) for b, h in zip(base, head))
    base_wins = sum(better(b, h) for b, h in zip(base, head))
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    if head_wins >= WINS_FOR_GAIN and better(hmed, bmed) and \
            abs(hmed - bmed) > bq3 - bq1:
        return "GAIN", head_wins
    if base_wins >= WINS_FOR_GAIN and better(bmed, hmed) and \
            abs(hmed - bmed) > hq3 - hq1:
        return "LOSS", head_wins
    return "NO GAIN", head_wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    sides = {}
    for side, ref in (("base", args.base), ("head", args.head)):
        sha = git("rev-parse", "--verify", ref + "^{commit}")
        tree = os.path.abspath(os.path.join(WORKDIR, f"{side}-{sha}"))
        export(sha, tree)
        # Each tree builds into its own directory, whatever the caller's
        # CARGO_TARGET_DIR says.
        env = dict(os.environ,
                   CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
        sides[side] = (tree, env)
        print(f"{side}: {ref} = {sha[:12]}")
    print(f"{PAIRS} pairs x {seconds} s per workload, "
          f"seed {args.seed}, trace 0\n")

    m = metrics[METRIC]
    lower = m["better"] == "lower"
    status = 0
    for w in workloads:
        runs = {"base": [], "head": []}
        print(f"{w}: {METRIC} ({m['unit']}, {m['better']} is better)")
        print(f"  {'pair':>4}  {'first':5}  {'base':>12}  {'head':>12}  "
              f"{'head/base':>9}")
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                tree, env = sides[side]
                got = run_once(w, args.seed, seconds, tree, env)
                if got is None:
                    print(f"bench_ab: {w} failed on {side}",
                          file=sys.stderr)
                    return 1
                runs[side].append(got)
            b = runs["base"][-1][METRIC]
            h = runs["head"][-1][METRIC]
            print(f"  {i + 1:>4}  {order[0]:5}  {b:>12.6g}  {h:>12.6g}  "
                  f"{h / b if b else float('nan'):>9.4f}", flush=True)

        base = [r[METRIC] for r in runs["base"]]
        head = [r[METRIC] for r in runs["head"]]
        for side, xs in (("base", base), ("head", head)):
            q1, med, q3 = quartiles(xs)
            print(f"  {side}: median {med:.6g}, quartiles "
                  f"[{q1:.6g}, {q3:.6g}], IQR {q3 - q1:.6g}")
        call, wins = verdict(base, head, lower)
        bmed = statistics.median(base)
        hmed = statistics.median(head)
        print(f"  head wins {wins}/{PAIRS}, median ratio "
              f"{hmed / bmed if bmed else float('nan'):.4f}: {call}")

        print("  other end-to-end metrics (median base -> head, bound):")
        for name, spec_m in metrics.items():
            if name == METRIC:
                continue
            bs = [r[name] for r in runs["base"]]
            hs = [r[name] for r in runs["head"]]
            bm = statistics.median(bs)
            hm = statistics.median(hs)
            low = spec_m["better"] == "lower"
            worse = (hm - bm) if low else (bm - hm)
            q1, _, q3 = quartiles(bs)
            all_better = (max(hs) < min(bs)) if low else (min(hs) > max(bs))
            flag = ""
            if bm and worse / abs(bm) > spec_m["bound"]:
                flag = "WORSE"
            elif bm and (q3 - q1) / abs(bm) > spec_m["bound"] and \
                    not all_better:
                flag = "UNRESOLVED"
            ratio = hm / bm if bm else float("nan")
            print(f"    {name:18} {bm:>12.6g} -> {hm:>12.6g}  "
                  f"x{ratio:.4f}  (bound {spec_m['bound']:.0%}) {flag}")
            if flag == "WORSE":
                status = 2
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
