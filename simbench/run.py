#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run one workload.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under simbench/; the helper tests run after every
build. The last stdout line is the benchmark's JSON result, checked
here against the metric names and units BENCHMARK.json declares. With
--trace 1 the spans are written to <build>/simbench/trace-<workload>.json.
Exits non-zero, without a result line, when the build, the helper tests
or the result check fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def step(cmd, **kw):
    """Run a build or test step, its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              **kw).returncode == 0
    except OSError as e:
        print(f"run.py: {cmd[0]}: {e}", file=sys.stderr)
        return False


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return (step(["cmake", "--build", build_dir, "-j", str(jobs())])
            and step([os.path.join(build_dir, "simbench_tests"),
                      "--gtest_brief=1"]))


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(line, trace):
    """Why the result line is malformed, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(res)}"
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    want = declared(trace)
    if got != want:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}, units "
                f"{sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "simbench")
    if not build(build_dir):
        print("run.py: build or helper tests failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "simbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: simbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    why = check(lines[-1], args.trace) if proc.stdout else "no output"
    if why:
        print("\n".join(lines[:-1]))
        print(f"run.py: {why}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
