#!/usr/bin/env python3
"""Append one simulator-speed record to BENCH_sim.json.

    python3 scripts/bench_record.py [--runs 5]

Run from the root of the checkout to measure. For every workload in
BENCHMARK.json it runs

    python3 simbench/run.py --workload W --seed 1 --seconds 30 --trace 0

--runs times (the workloads take turns, so a slow spell of the host is
spread over all of them) and appends one record to BENCH_sim.json: the
checked-out commit and, per workload, the median of each end-to-end
metric. The seed and run length are fixed so that every record in the
file is comparable with the others. The record says whether src/ or
simbench/ differ from that commit, since then the numbers belong to an
uncommitted tree. Exits non-zero, writing nothing, if any run fails.
"""

import argparse
import json
import os
import statistics
import sys

from bench_common import git, run_once

SECONDS = 30
SEED = 1
OUT = "BENCH_sim.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]

    samples = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            print(f"bench_record: {w} run {r + 1}/{args.runs}",
                  file=sys.stderr)
            got = run_once(w, SEED, SECONDS)
            if got is None:
                print(f"bench_record: {w} failed", file=sys.stderr)
                return 1
            samples[w].append(got)

    record = {
        "commit": git("rev-parse", "HEAD"),
        "subject": git("log", "-1", "--format=%s"),
        "uncommitted": git("status", "--porcelain", "--", "src",
                           "simbench") != "",
        "host_cpus": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "seconds": SECONDS,
        "seed": SEED,
        "medians": {w: {n: statistics.median(s[n] for s in samples[w])
                        for n in names}
                    for w in workloads},
    }
    trajectory = {"records": []}
    if os.path.exists(OUT):
        with open(OUT) as f:
            trajectory = json.load(f)
    trajectory["records"].append(record)
    with open(OUT, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
