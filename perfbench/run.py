"""ViDa's benchmark: three seeded workloads, answers checked independently.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload hbp_session --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

For each workload this script generates (or reuses) the seeded inputs and
their independently computed answers under ``.bench_cache/``, then runs the
workload in a fresh child process with the repository's ``src`` on
``PYTHONPATH``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (spans
are written to ``.bench_out/``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("hbp_session", "sql_analytics", "tenant_server")
#: a child that runs longer than this is stopped and the run fails
GENERATE_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = perf_counter()
    data = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload",
         workload, "--seed", str(seed), "--root", ROOT],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
        timeout=GENERATE_TIMEOUT_S).stdout.strip()
    prepared = perf_counter() - t0
    if prepared > 1.0:
        print(f"[{workload}] generated inputs for seed {seed} in "
              f"{prepared:.1f} s", flush=True)
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    spans = os.path.join(out_dir, f"spans-{workload}-s{seed}.jsonl")
    if trace and os.path.exists(spans):
        os.remove(spans)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data", data, "--work", work, "--out", result_path]
    if trace:
        cmd += ["--spans", spans]
    try:
        subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the ViDa sources are missing ({SRC}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"error: workload {workload} did not finish: {exc}",
                  file=sys.stderr)
            return 1
        res = results[workload]
        print(f"[{workload}] attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}")
        for name, metric in res["metrics"].items():
            print(f"[{workload}]   {name:32s} {metric['value']:14.6f} "
                  f"{metric['unit']}")
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
