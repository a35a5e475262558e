"""What bench_ab.py and bench_record.py share: git and one simbench run."""

import json
import os
import subprocess
import sys


def git(*args):
    """The stripped stdout of `git ARGS` in the current directory."""
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(workload, seed, seconds, tree=".", env=None):
    """The end-to-end metrics of one untraced simbench run in @tree.

    Runs `python3 simbench/run.py --workload W --seed N --seconds S
    --trace 0` with @tree as its working directory and @env as its
    environment (None inherits this one), and returns the value of
    every metric of its last stdout line. Returns None, with the run's
    stderr copied to ours, when the run exits non-zero, prints no
    result, reports a wrong result or fails an operation.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join("simbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout:
        sys.stderr.write(proc.stderr)
        return None
    res = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stderr)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}
