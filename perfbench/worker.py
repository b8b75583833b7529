"""One workload in one fresh process: run passes, check every answer.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``. A
*pass* is one complete, identical repetition of the workload: fresh set-up
(timed several times), then the whole operation schedule on cold raw files.
Passes repeat until ``--seconds`` have elapsed (and at least
:data:`MIN_PASSES` ran), so every run attempts whole passes and the share of
failed operations is the same in every run. After each pass, outside any
timed region, each answer is compared with the independently computed one.

The result (end-to-end metrics, or per-layer metrics with ``--trace 1``) is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

from repro import EngineContext, ViDa
from repro.server.server import ViDaServer

import layers as layer_trace

MIN_PASSES = 3
#: fresh set-ups timed per pass (the last one is kept for the pass)
SETUP_REPEATS = 3
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow machine from a
    slow program. Printed only, never a metric."""
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


def as_rows(value) -> list[list]:
    """A query value (or a server ``rows`` list) as a list of row lists."""
    if isinstance(value, list):
        return [list(r.values()) if isinstance(r, dict) else [r] for r in value]
    if isinstance(value, dict):
        return [list(value.values())]
    return [[value]]


def _sort_key(row: list):
    return [(1, 0) if v is None else (0, round(v, 6))
            if isinstance(v, float) else (0, v) for v in row]


def _same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    return a == b


def same_answer(actual: list[list], expected: dict) -> bool:
    rows = expected["rows"]
    if len(actual) != len(rows):
        return False
    if not expected["ordered"]:
        try:
            actual, rows = sorted(actual, key=_sort_key), \
                sorted(rows, key=_sort_key)
        except TypeError:
            return False
    return all(len(a) == len(e) and all(map(_same_value, a, e))
               for a, e in zip(actual, rows))


class Checker:
    """Compares a pass's answers with ``expected.jsonl`` and counts failures.

    An operation fails when it raised or its answer differs. A failure of an
    operation tagged with a known fault is counted but keeps the run
    correct; any other failure makes the run incorrect and is reported with
    its seed and text.
    """

    def __init__(self, data_dir: str, seed: int):
        self.path = os.path.join(data_dir, "expected.jsonl")
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[int] = set()

    def check(self, ops: list[dict], outcomes: list[tuple],
              probes: list[tuple[int, tuple]]) -> None:
        """``outcomes`` holds one (rows, error, text) per operation;
        ``probes`` holds (operation index, outcome) pairs of operations run
        again on the discarded fresh set-ups."""
        extra: dict[int, list[tuple]] = {}
        for index, outcome in probes:
            extra.setdefault(index, []).append(outcome)
        with open(self.path) as fh:
            for i, (op, line, outcome) in enumerate(zip(ops, fh, outcomes)):
                expected = json.loads(line)
                for each in extra.get(i, []) + [outcome]:
                    self._judge(i, op, expected, each)

    def _judge(self, i: int, op: dict, expected: dict, outcome: tuple) -> None:
        rows, error, text = outcome
        self.attempted += 1
        if error is None and same_answer(rows, expected):
            return
        self.failed += 1
        if op["fault"] is None:
            self.correct = False
            if i not in self._reported:
                self._reported.add(i)
                why = error or "answer differs from the oracle"
                print(f"FAILED op {i} (seed {self.seed}): {text!r}: {why}",
                      file=sys.stderr)


# ---------------------------------------------------------------------------
# in-process workloads (one client, one cold session per pass)
# ---------------------------------------------------------------------------


class SessionWorkload:
    """A closed loop of one client over a fresh :class:`ViDa` per pass."""

    def __init__(self, data_dir: str, meta: dict, ops: list[dict]):
        self.data_dir = data_dir
        self.meta = meta
        self.ops = ops
        self.file_rows = sum(meta["rows"].values())

    def open(self) -> ViDa:
        db = ViDa()
        for name, fname in self.meta["files"].items():
            path = os.path.join(self.data_dir, fname)
            if fname.endswith(".json"):
                db.register_json(name, path)
            else:
                db.register_csv(name, path)
        return db

    @staticmethod
    def _call(db: ViDa, op: dict) -> tuple[float, tuple]:
        text = op.get("sql") or op["q"]
        t0 = perf_counter()
        try:
            result = db.sql(text) if "sql" in op else db.query(text)
        except Exception as exc:  # a failed operation is counted, not fatal
            return perf_counter() - t0, (None, f"{type(exc).__name__}: {exc}",
                                         text)
        latency = perf_counter() - t0
        return latency, (as_rows(result.value), None, text)

    def run_pass(self, tracer) -> dict:
        setups, firsts, probes = [], [], []
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            db = self.open()
            setups.append(perf_counter() - t0)
            if k < SETUP_REPEATS - 1:
                # every fresh set-up also times the first operation on cold
                # raw files: one cold answer per pass would be too few samples
                latency, outcome = self._call(db, self.ops[0])
                firsts.append(latency)
                probes.append((0, outcome))
                db.close()
        latencies, outcomes = [], []
        if tracer is not None:
            tracer.install()
        try:
            t_start = perf_counter()
            for op in self.ops:
                latency, outcome = self._call(db, op)
                latencies.append(latency)
                outcomes.append(outcome)
            workload_s = perf_counter() - t_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers = None
        if tracer is not None:
            layers = layer_trace.layer_metrics(tracer, db.engine_context,
                                               self.file_rows, None)
        db.close()
        return {
            "setups": setups, "workload_s": workload_s,
            "first_answers": firsts + latencies[:1], "latencies": latencies,
            "outcomes": outcomes, "probes": probes, "layers": layers,
        }


# ---------------------------------------------------------------------------
# tenant_server: two tenants over one in-process ViDaServer
# ---------------------------------------------------------------------------


class _Client:
    """One tenant connection: a closed loop, one request in flight."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self._ids = itertools.count(1)

    async def request(self, payload: dict) -> tuple[dict, int, float]:
        payload = dict(payload, id=next(self._ids))
        t0 = perf_counter()
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        reply = json.loads(line)
        return reply, len(line), perf_counter() - t0

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class TenantServerWorkload:
    """Two tenants, one served CSV that grows at fixed points of the
    schedule, and AS OF queries against retained generations."""

    SOURCE = "events"

    def __init__(self, data_dir: str, meta: dict, ops: list[dict],
                 work_dir: str):
        self.data_dir = data_dir
        self.meta = meta
        self.ops = ops
        self.path = os.path.join(work_dir, meta["file"])
        self.phases = len(meta["rows"])
        self.file_rows = meta["rows"][-1]

    async def _open(self):
        ctx = EngineContext()
        server = ViDaServer(context=ctx, max_workers=2)
        await server.start()
        host, port = server.address
        clients = []
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                host, port, limit=64 << 20)
            clients.append(_Client(reader, writer))
        reply, _, _ = await clients[0].request(
            {"op": "register", "name": self.SOURCE, "path": self.path,
             "format": "csv"})
        if not reply.get("ok"):
            raise RuntimeError(f"register failed: {reply}")
        return ctx, server, clients

    @staticmethod
    async def _close(ctx, server, clients) -> None:
        for client in clients:
            await client.close()
        await server.stop()
        ctx.close()

    async def _tenant(self, client: _Client, indexed: list, tokens: list,
                      record: dict) -> None:
        for i, op in indexed:
            if op["as_of"] is None:
                src = self.SOURCE
            else:
                src = f"{self.SOURCE} AS OF GENERATION {tokens[op['as_of']]}"
            text = op["template"].format(src=src)
            reply, size, rtt = await client.request(
                {"sql": text, "stats": True})
            if reply.get("ok"):
                outcome = (as_rows(reply["rows"]), None, text)
                total_ms = reply["stats"]["total_ms"]
            else:
                outcome = (None, json.dumps(reply.get("error")), text)
                total_ms = None
            record[i] = (rtt, outcome, size, total_ms)

    async def _run_pass(self, tracer) -> dict:
        shutil.copyfile(os.path.join(self.data_dir, self.meta["file"]),
                        self.path)
        schedule = [[[(i, op) for i, op in enumerate(self.ops)
                      if op["phase"] == phase and op["tenant"] == t]
                     for t in (0, 1)] for phase in range(self.phases)]
        setups, firsts, probes = [], [], []
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            opened = await self._open()
            setups.append(perf_counter() - t0)
            if k < SETUP_REPEATS - 1:
                # every fresh set-up also times the tenants' first operations
                # on cold raw files, sent at once as in the pass itself
                record: dict[int, tuple] = {}
                await asyncio.gather(*(
                    self._tenant(c, ops[:1], [], record)
                    for c, ops in zip(opened[2], schedule[0])))
                firsts.append(record[schedule[0][0][0][0]][0])
                probes += [(i, r[1]) for i, r in record.items()]
                await self._close(*opened)
        ctx, server, clients = opened
        record = {}
        tokens: list[int] = []
        if tracer is not None:
            tracer.install()
        try:
            t_start = perf_counter()
            for phase in range(self.phases):
                await asyncio.gather(*(
                    self._tenant(c, ops, tokens, record)
                    for c, ops in zip(clients, schedule[phase])))
                tokens.append(ctx.catalog.get(self.SOURCE).generation)
                if phase + 1 < self.phases:
                    tail = os.path.join(self.data_dir,
                                        self.meta["tails"][phase])
                    with open(tail, "rb") as src, \
                            open(self.path, "ab") as dst:
                        dst.write(src.read())
            workload_s = perf_counter() - t_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        rows = [record[i] for i in range(len(self.ops))]
        layers = None
        if tracer is not None:
            overheads = [rtt * 1e3 - total for rtt, _o, _s, total in rows
                         if total is not None]
            layers = layer_trace.layer_metrics(tracer, ctx, self.file_rows, {
                "overhead_ms": statistics.median(overheads),
                "response_kb": statistics.fmean(s for _r, _o, s, _t in rows)
                / 1024,
                "quota_rejections": server.stats.quota_rejections,
            })
        await self._close(ctx, server, clients)
        return {
            "setups": setups, "workload_s": workload_s,
            "first_answers": firsts + [rows[schedule[0][0][0][0]][0]],
            "latencies": [r[0] for r in rows],
            "outcomes": [r[1] for r in rows], "probes": probes,
            "layers": layers,
        }

    def run_pass(self, tracer) -> dict:
        return asyncio.run(self._run_pass(tracer))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = [x for p in passes for x in p["latencies"]]
    out = {
        "setup_s": (statistics.median(s for p in passes for s in p["setups"]),
                    "s"),
        "first_answer_s": (statistics.median(
            x for p in passes for x in p["first_answers"]), "s"),
        "workload_s": (statistics.median(p["workload_s"] for p in passes), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    if len(latencies) < 10 * TAIL_SAMPLES:
        raise RuntimeError(f"only {len(latencies)} operations ran; the 90th "
                           f"percentile needs {10 * TAIL_SAMPLES}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(args.data, "ops.json")) as fh:
        spec = json.load(fh)
    meta, ops = spec["meta"], spec["ops"]
    if args.workload == "tenant_server":
        # The event loop and the two executor threads take turns on one
        # interpreter lock, so they never run Python code at once. Spread
        # over two cores, every hand-off of the lock goes through a
        # cross-core wake-up, and run-to-run spreads reached 28-32% against
        # 5-14% for the single-threaded workloads. On one CPU (set before
        # any thread starts, so all of them inherit it) the hand-offs are
        # local and the runs steady.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        workload = TenantServerWorkload(args.data, meta, ops, args.work)
    else:
        workload = SessionWorkload(args.data, meta, ops)
    checker = Checker(args.data, args.seed)

    probe_before = speed_probe()
    passes, traced, untraced, tracers = [], [], [], []
    t_run = perf_counter()
    # whole passes only; another one starts while at least half of it is
    # expected to fit in the remaining time
    while len(passes) < MIN_PASSES + args.trace or perf_counter() - t_run \
            + 0.5 * (perf_counter() - t_run) / len(passes) < args.seconds:
        # traced runs alternate untraced and traced passes, so the tracing
        # overhead is measured in the same process
        tracer = layer_trace.Tracer() if args.trace and len(passes) % 2 \
            else None
        result = workload.run_pass(tracer)
        checker.check(ops, result.pop("outcomes"), result.pop("probes"))
        passes.append(result)
        print(f"[{args.workload}] pass {len(passes) - 1}"
              f"{' (traced)' if tracer is not None else ''}: set-up "
              f"{statistics.median(result['setups']):.4f} s, first answer "
              f"{statistics.median(result['first_answers']):.3f} s, workload "
              f"{result['workload_s']:.3f} s", flush=True)
        if tracer is not None:
            traced.append(result)
            tracers.append((len(passes) - 1, tracer))
        else:
            untraced.append(result)
    probe_after = speed_probe()
    if args.spans:
        for index, tracer in tracers:
            tracer.write(args.spans, index, t_run)
    print(f"[{args.workload}] machine probe: {probe_before:.3f} s before, "
          f"{probe_after:.3f} s after; {len(passes)} passes of {len(ops)} "
          f"operations", flush=True)

    if args.trace:
        metrics = layer_trace.median_metrics([p["layers"] for p in traced])
        values = {name: (value, layer_trace.PER_LAYER[name][0])
                  for name, value in metrics.items()}
        on = statistics.median(p["workload_s"] for p in traced)
        off = statistics.median(p["workload_s"] for p in untraced)
        print(f"[{args.workload}] tracing overhead: workload_s {off:.3f} s "
              f"untraced, {on:.3f} s traced ({on - off:+.3f} s, "
              f"{(on - off) / off:+.1%})", flush=True)
    else:
        values = end_to_end(passes)
    out = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
