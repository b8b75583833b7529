"""Traced mode: spans around each layer's public entry points.

The program has no spans of its own, so this module records them from
outside: :meth:`Tracer.install` wraps the entry points listed in
:data:`LAYERS` (functions and methods looked up by name) and
:meth:`Tracer.uninstall` puts the originals back. A span carries a name,
start, end, parent and root id, plus ``busy``: the seconds actually spent
inside the layer. For a call that is ``end - start``; for an iterator (a
scan handing out chunks or rows) only the time inside ``next()`` counts,
because between two ``next()`` calls the consumer runs.

A layer's self time is the busy time of its spans minus the busy time of
their direct child spans. Spans are kept in memory and written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from time import perf_counter

#: (module, attribute path, span name, kind): the wrapped entry points. ``call``
#: spans one call; ``query`` also keeps the result's ``QueryStats``; ``iter``
#: spans the call plus every ``next()`` on its result.
#: ``parse``/``typecheck``/``normalize``/``translate``/``eval_expr`` are bound
#: by name in ``repro.core.session``, so they are patched there.
LAYERS = [
    ("repro.core.session", "ViDa.sql", "session", "call"),
    ("repro.core.session", "ViDa.query", "session", "query"),
    ("repro.languages.sql", "parse_sql", "sql.translate", "call"),
    ("repro.languages.sql", "translate_sql", "sql.translate", "call"),
    ("repro.core.session", "parse", "mcc.frontend", "call"),
    ("repro.core.session", "typecheck", "mcc.frontend", "call"),
    ("repro.core.session", "normalize", "mcc.frontend", "call"),
    ("repro.core.session", "translate", "mcc.frontend", "call"),
    ("repro.core.optimizer.planner", "Planner.plan", "optimizer.plan", "call"),
    ("repro.core.codegen.compiler", "QueryCompiler.compile",
     "codegen.compile", "call"),
    ("repro.core.codegen.compiler", "CompiledQuery.__call__",
     "executor.compiled", "call"),
    ("repro.core.session", "eval_expr", "executor.interpreted", "call"),
    ("repro.core.executor.static_engine", "StaticExecutor.execute",
     "executor.interpreted", "call"),
    ("repro.core.executor.runtime", "QueryRuntime.csv_chunks",
     "formats.scan", "iter"),
    ("repro.core.executor.runtime", "QueryRuntime.json_chunks",
     "formats.scan", "iter"),
    # the row-at-a-time path (correlated subqueries, the interpreter)
    ("repro.core.executor.runtime", "QueryRuntime.iter_source",
     "formats.row_path", "iter"),
    ("repro.core.executor.runtime", "QueryRuntime.cache_chunks",
     "caching.serve", "iter"),
    ("repro.core.executor.runtime", "QueryRuntime.index_chunks",
     "indexing.fetch", "iter"),
    ("repro.core.engine", "EngineContext.refresh_source",
     "generations.refresh", "call"),
]


class _Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "busy",
                 "_t0", "items")

    def __init__(self, span_id, parent, name, now):
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else span_id
        self.name = name
        self.start = now
        self.end = now
        self.busy = 0.0
        self._t0 = now
        self.items = 0


class Tracer:
    """Records spans and per-query statistics while installed."""

    def __init__(self):
        self.spans: list[_Span] = []
        #: (QueryStats, answer rows) of every ViDa.query call
        self.queries: list[tuple[object, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Span:
        stack = self._stack()
        span = _Span(next(self._ids), stack[-1] if stack else None, name,
                     perf_counter())
        stack.append(span)
        return span

    def _resume(self, span: _Span) -> None:
        self._stack().append(span)
        span._t0 = perf_counter()

    def _suspend(self, span: _Span) -> None:
        now = perf_counter()
        span.busy += now - span._t0
        span.end = now
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _finish(self, span: _Span) -> None:
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------------

    def _wrap_call(self, fn, name: str, keep_stats: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._suspend(span)
                tracer._finish(span)
            if keep_stats:
                value = result.value
                tracer.queries.append(
                    (result.stats, len(value) if isinstance(value, list) else 1))
            return result

        return traced

    def _wrap_iter(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                it = iter(fn(*args, **kwargs))
            except BaseException:
                tracer._suspend(span)
                tracer._finish(span)
                raise
            tracer._suspend(span)
            return tracer._iterate(it, span)

        return traced

    def _iterate(self, it, span: _Span):
        try:
            while True:
                self._resume(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._suspend(span)
                span.items += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()
            self._finish(span)

    def install(self) -> None:
        import importlib

        for module_name, path, name, kind in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if kind == "iter":
                wrapped = self._wrap_iter(original, name)
            else:
                wrapped = self._wrap_call(original, name, kind == "query")
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per-layer self time in ms: busy time minus direct children's."""
        child_busy: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent] = child_busy.get(span.parent, 0.0) \
                    + span.busy
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.busy - child_busy.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own * 1e3
        return out

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def items(self, name: str) -> int:
        return sum(span.items for span in self.spans if span.name == name)

    def write(self, path: str, pass_index: int, t0: float) -> None:
        """Append this tracer's spans as JSON lines (times relative to t0)."""
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "pass": pass_index, "id": s.id, "parent": s.parent,
                    "root": s.root, "name": s.name,
                    "start": round(s.start - t0, 7), "end": round(s.end - t0, 7),
                    "busy": round(s.busy, 7), "items": s.items,
                }) + "\n")


def layer_metrics(tracer: Tracer, ctx, file_rows: int,
                  server: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the spans, the collected
    ``QueryStats`` and the context's public counters."""
    own = tracer.self_ms()
    qstats = tracer.queries
    planned = tracer.count("optimizer.plan")
    reused = sum(1 for s, _ in qstats if s.plan_cached)
    snap = ctx.stats_snapshot()
    cache, compiles = snap["cache"], snap["compile_cache"]
    raw_rows = sum(s.raw_rows for s, _ in qstats)
    index_rows = sum(s.index_rows_served for s, _ in qstats)
    index_answers = sum(n for s, n in qstats if s.index_hits)
    lookups = compiles["compilations"] + compiles["hits"]
    server = server or {}
    return {
        "sql.translate_ms": own.get("sql.translate", 0.0),
        "mcc.frontend_ms": own.get("mcc.frontend", 0.0),
        "optimizer.plan_ms": own.get("optimizer.plan", 0.0),
        "optimizer.plan_reuse_ratio": reused / (reused + planned)
        if reused + planned else 0.0,
        "stats.calibration_moves": snap["calibration"]["version"],
        "codegen.compile_ms": own.get("codegen.compile", 0.0),
        "codegen.compilations": compiles["compilations"],
        "codegen.compile_hit_ratio": compiles["hits"] / lookups
        if lookups else 0.0,
        "executor.compiled_ms": own.get("executor.compiled", 0.0),
        "executor.interpreted_ms": own.get("executor.interpreted", 0.0),
        "executor.row_path_rows": tracer.items("formats.row_path"),
        "formats.scan_ms": own.get("formats.scan", 0.0)
        + own.get("formats.row_path", 0.0),
        "formats.raw_rows": raw_rows,
        "formats.raw_mb": sum(s.raw_bytes for s, _ in qstats) / 1e6,
        "formats.rescan_factor": raw_rows / file_rows,
        "caching.serve_ms": own.get("caching.serve", 0.0),
        "caching.hit_ratio": cache["hits"] / cache["lookups"]
        if cache["lookups"] else 0.0,
        "caching.rows_served": sum(s.cache_rows for s, _ in qstats),
        "caching.used_mb": cache["used_bytes"] / 1e6,
        "caching.evictions": cache["evictions"],
        "indexing.fetch_ms": own.get("indexing.fetch", 0.0),
        "indexing.hits": sum(s.index_hits for s, _ in qstats),
        "indexing.rows_served": index_rows,
        "indexing.rows_per_answer_row": index_rows / index_answers
        if index_answers else 0.0,
        "generations.refresh_ms": own.get("generations.refresh", 0.0),
        "generations.delta_refreshes": snap["delta_refreshes"],
        "generations.full_invalidations": snap["full_invalidations"],
        "generations.delta_tail_mb": snap["delta_tail_bytes"] / 1e6,
        "server.overhead_ms": server.get("overhead_ms", 0.0),
        "server.response_kb": server.get("response_kb", 0.0),
        "server.quota_rejections": server.get("quota_rejections", 0),
    }


#: per-layer metrics that count work; they must repeat exactly between two
#: runs with one seed (see README, "Exact-repeat check")
COUNTED = [
    "formats.raw_rows", "formats.raw_mb", "codegen.compilations",
    "executor.row_path_rows", "indexing.rows_served", "caching.rows_served",
    "generations.delta_tail_mb", "stats.calibration_moves",
]

#: every per-layer metric: (unit, which direction is better)
PER_LAYER = {
    "sql.translate_ms": ("ms", "lower"),
    "mcc.frontend_ms": ("ms", "lower"),
    "optimizer.plan_ms": ("ms", "lower"),
    "optimizer.plan_reuse_ratio": ("ratio", "higher"),
    "stats.calibration_moves": ("count", "lower"),
    "codegen.compile_ms": ("ms", "lower"),
    "codegen.compilations": ("count", "lower"),
    "codegen.compile_hit_ratio": ("ratio", "higher"),
    "executor.compiled_ms": ("ms", "lower"),
    "executor.interpreted_ms": ("ms", "lower"),
    "executor.row_path_rows": ("rows", "lower"),
    "formats.scan_ms": ("ms", "lower"),
    "formats.raw_rows": ("rows", "lower"),
    "formats.raw_mb": ("MB", "lower"),
    "formats.rescan_factor": ("ratio", "lower"),
    "caching.serve_ms": ("ms", "lower"),
    "caching.hit_ratio": ("ratio", "higher"),
    "caching.rows_served": ("rows", "higher"),
    "caching.used_mb": ("MB", "lower"),
    "caching.evictions": ("count", "lower"),
    "indexing.fetch_ms": ("ms", "lower"),
    "indexing.hits": ("count", "higher"),
    "indexing.rows_served": ("rows", "lower"),
    "indexing.rows_per_answer_row": ("ratio", "lower"),
    "generations.refresh_ms": ("ms", "lower"),
    "generations.delta_refreshes": ("count", "higher"),
    "generations.full_invalidations": ("count", "lower"),
    "generations.delta_tail_mb": ("MB", "lower"),
    "server.overhead_ms": ("ms", "lower"),
    "server.response_kb": ("KB", "lower"),
    "server.quota_rejections": ("count", "lower"),
}


def median_metrics(passes: list[dict]) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes (counts use
    the lower median, so a count is always one pass's actual value)."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if all(isinstance(v, int) for v in values):
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out
