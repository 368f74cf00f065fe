#!/usr/bin/env python3
"""Check that the traced per-layer counts repeat exactly for a repeated seed.

Usage (from the checkout root):

    python3 perfbench/repeat_check.py --seeds 1,2 [--workloads search,plan,cli] [--size full]

Each workload runs traced twice per seed.  The counts below must agree
between the two runs of a seed; any difference is printed as MISMATCH and
the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

COUNTS = (
    "kernel.calls",
    "kernel.sweeps",
    "core.covers_built",
    "enumeration.covers_yielded",
    "planning.post_misses",
    "formats.render_bytes",
)
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_counts(workload: str, seed: int, size: str) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--trace", "1", "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--workloads", default="search,plan,cli")
    parser.add_argument("--size", default="full")
    args = parser.parse_args()
    bad = 0
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            first = traced_counts(workload, seed, args.size)
            second = traced_counts(workload, seed, args.size)
            for name in COUNTS:
                same = first[name] == second[name]
                bad += not same
                print(f"{workload:>7} seed {seed:<4} {name:<28} {first[name]:>14} {second[name]:>14}"
                      f"  {'ok' if same else 'MISMATCH'}")
    print("all counts repeat" if not bad else f"{bad} mismatching counts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
