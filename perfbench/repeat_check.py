"""Exact-repeat check of counted work.

Runs the traced benchmark twice with one seed and compares the per-layer
metrics that count work (raw rows and bytes, compilations, row-path rows,
index and cache rows served, delta tail bytes, calibration moves). Counted
work should not depend on timing; a count that moves names a plan choice
that does (see README, "Exact-repeat check")::

    python3 perfbench/repeat_check.py --seed 1 --seconds 35

Exits 1 if any counted metric differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import COUNTED  # noqa: E402
from run import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    args = ap.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    moved = 0
    for workload in workloads:
        first, second = (traced_run(workload, args.seed, args.seconds)
                         for _ in range(2))
        for name in COUNTED:
            a, b = first[name]["value"], second[name]["value"]
            verdict = "repeats" if a == b else "MOVED"
            moved += a != b
            print(f"{workload:14s} {name:28s} {a:>14} {b:>14}  {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
