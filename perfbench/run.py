#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/stmbench.ml).

    python3 perfbench/run.py --workload rbtree-read --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout.  The benchmark executable is built
with dune, then run; its report goes to standard output, whose last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every checked run was correct.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "stmbench.exe")
WORKLOADS = ["rbtree-read", "list-conflict", "sim-paper"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The benchmark links the repository's libraries: without the sources
    # there is nothing to measure.
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found under %s: run from a full checkout" % (needed, ROOT), 2)

    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/stmbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        fail("build failed with exit code %d" % build.returncode, 3)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        keys_ok = False
    if not keys_ok:
        fail("benchmark printed no result line (exit code %d)" % run.returncode, 5)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
