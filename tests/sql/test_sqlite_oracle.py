"""Differential test of the SQL layer against the stdlib ``sqlite3`` oracle.

Every seed generates one table with NULL-bearing measures, a key with few
groups, a key with many groups and one group whose measure is all NULL,
plus a batch of aggregate queries over it: GROUP BY on one or two keys,
HAVING on an aggregate the SELECT does not show, every aggregate function
(``count(DISTINCT e)`` and ``median`` included), multi-aggregate SELECTs
without GROUP BY, inputs a WHERE clause empties, ORDER BY over a NULL
column or a group, and ``<>``, ``NOT`` and ``NOT IN`` over NULL columns.
Each query runs on both engines, serially and on process morsels at DoP 2,
cold (freshly registered file) and warm
(second run: positional map and cache). SQLite has no ``median``; the
oracle registers one with SQL's rules (NULLs skipped, NULL when empty).

A failure names its seed and query; rerun that seed alone with
``pytest tests/sql/test_sqlite_oracle.py -k "seed_<n>"``.
"""

from __future__ import annotations

import math
import random
import sqlite3

import pytest

from repro import EngineContext, ViDa
from repro.core.optimizer import cost as C
from repro.formats import write_csv

SEEDS = list(range(6))
COLUMNS = ["r", "s", "w", "x"]
TYPES = ["string", "int", "float", "int"]
AGGREGATES = ["count(*)", "count({m})", "count(DISTINCT {m})", "sum({m})",
              "avg({m})", "min({m})", "max({m})", "median({m})"]
CONFIGS = [(engine, backend) for engine in ("jit", "static")
           for backend in ("serial", "process")]


class _Median:
    def __init__(self):
        self.values = []

    def step(self, value):
        if value is not None:
            self.values.append(value)

    def finalize(self):
        v = sorted(self.values)
        if not v:
            return None
        mid = len(v) // 2
        return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def _rows(rng: random.Random) -> list[tuple]:
    n = rng.randrange(40, 160)
    rows = []
    for i in range(n):
        r = rng.choice(["a", "b", "c", None, "z"])
        w = None if r == "z" or rng.random() < 0.25 \
            else rng.randrange(-500, 500) / 4
        x = None if rng.random() < 0.2 else rng.randrange(0, 20)
        rows.append((r, rng.randrange(n // 2 + 1), w, x))
    return rows


def _agg(rng: random.Random) -> str:
    return rng.choice(AGGREGATES).format(m=rng.choice(["w", "x"]))


def _queries(rng: random.Random) -> list[str]:
    empty = "WHERE x > 1000"
    out = ["SELECT r, count(DISTINCT w) FROM {t} GROUP BY r",
           "SELECT s, count(*), sum(w), avg(x), median(w) FROM {t} GROUP BY s",
           "SELECT r, sum(w) FROM {t} " + empty + " GROUP BY r",
           "SELECT count(*), sum(w), avg(w), min(x), max(x), median(x), "
           "count(DISTINCT x) FROM {t} " + empty,
           "SELECT s, w FROM {t} WHERE r <> 'a'",
           "SELECT x, w FROM {t} ORDER BY w DESC LIMIT 7",
           "SELECT x, w FROM {t} ORDER BY w",
           "SELECT r, count(*) FROM {t} GROUP BY r ORDER BY count(*) DESC",
           "SELECT sum(x), r FROM {t} WHERE w > 0 GROUP BY r ORDER BY r",
           "SELECT s, w FROM {t} WHERE NOT (r <> 'b')",
           "SELECT s FROM {t} WHERE NOT (w > 0 AND r <> 'a') OR x NOT IN (1, 2)",
           "SELECT r, count(*) FROM {t} GROUP BY r HAVING NOT (max(w) <> min(w))"]
    for _ in range(10):
        keys = rng.choice([["r"], ["s"], ["r", "s"], ["r", "x"]])
        items = ", ".join(keys + [_agg(rng) for _ in range(rng.randrange(1, 4))])
        where = rng.choice(["", "", "WHERE x < 12 ", "WHERE w > 0 ", empty + " "])
        having = rng.choice(["", f" HAVING {_agg(rng)} > {rng.randrange(0, 4)}",
                             f" HAVING {_agg(rng)} IS NOT NULL"])
        out.append(f"SELECT {items} FROM {{t}} {where}"
                   f"GROUP BY {', '.join(keys)}{having}")
    for _ in range(4):
        where = rng.choice(["", "WHERE x >= 5 ", empty + " "])
        aggs = ", ".join(_agg(rng) for _ in range(rng.randrange(2, 5)))
        out.append(f"SELECT {aggs} FROM {{t}} {where}".strip())
    for _ in range(3):
        where = rng.choice(["", "WHERE r <> 'b' "])
        out.append(f"SELECT {_agg(rng)} FROM {{t}} {where}".strip())
    return out


def _as_rows(value) -> list[list]:
    if isinstance(value, list):
        return [list(r.values()) if isinstance(r, dict) else [r] for r in value]
    if isinstance(value, dict):
        return [list(value.values())]
    return [[value]]


def _sort_key(row):
    return [(1, 0) if v is None else (0, round(v, 6)) if isinstance(v, float)
            else (0, v) for v in row]


def _same(got: list[list], want: list[list], ordered_by: int | None) -> bool:
    if len(got) != len(want):
        return False
    if ordered_by is not None:
        # ties may come in any order: the key sequence must match exactly,
        # the rows as a multiset
        if _sort_key([r[ordered_by] for r in got]) != \
                _sort_key([r[ordered_by] for r in want]):
            return False
    got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    for g, w in zip(got, want):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if a is None or b is None:
                if a is not b:
                    return False
            elif isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


def _single_sum(sql: str) -> bool:
    """A lone ``sum`` without GROUP BY: the calculus sum monoid answers 0
    where SQL answers NULL (no non-NULL input) — the known divergence
    pinned by ``test_single_sum_without_input_is_null``."""
    head = sql.split(" FROM ")[0]
    return head.startswith("SELECT sum(") and "," not in head


@pytest.fixture(scope="module")
def sessions():
    """One session per configuration for the whole module, so worker
    processes spawn once; every query registers its own copy of the file,
    which makes its first run cold."""
    with pytest.MonkeyPatch.context() as mp:
        # make the cost model shard these small files onto process morsels
        for name in ("MORSEL_SETUP_COST", "PROCESS_SPAWN_COST",
                     "PROCESS_MORSEL_IPC_COST"):
            mp.setattr(C, name, 1e-9)
        out = {(engine, backend): ViDa(parallelism=2, backend="process",
                                       context=EngineContext())
               if backend == "process" else ViDa()
               for engine, backend in CONFIGS}
        try:
            yield out
        finally:
            for db in out.values():
                db.close()


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed_{s}")
def test_sql_matches_sqlite(tmp_path, sessions, seed):
    rng = random.Random(seed)
    rows = _rows(rng)
    path = tmp_path / "t.csv"
    write_csv(path, COLUMNS, rows)
    con = sqlite3.connect(":memory:")
    con.create_aggregate("median", 1, _Median)
    con.execute(f"CREATE TABLE t ({', '.join(COLUMNS)})")
    con.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    process_runs = 0
    for qi, template in enumerate(_queries(rng)):
        want = [list(r) for r in con.execute(template.format(t="t"))]
        ordered_by = 1 if "ORDER BY" in template else None
        for (engine, backend), db in sessions.items():
            name = f"t_{seed}_{qi}"
            db.register_csv(name, path, columns=COLUMNS, types=TYPES)
            sql = template.format(t=name)
            for phase in ("cold", "warm"):
                result = db.sql(sql, engine=engine)
                got = _as_rows(result.value)
                if _single_sum(sql) and want == [[None]]:
                    want_here = [[0]]
                else:
                    want_here = want
                assert _same(got, want_here, ordered_by), (
                    f"seed {seed}, {engine}/{backend}, {phase}: {sql}\n"
                    f"  got  {sorted(got, key=_sort_key)[:8]}\n"
                    f"  want {sorted(want_here, key=_sort_key)[:8]}")
                if "/process" in result.plan_text:
                    process_runs += 1
    assert process_runs > 0, "no query ran on process morsels"


@pytest.mark.xfail(strict=True, reason="a lone SQL sum keeps the calculus "
                   "sum monoid's identity 0 where SQL says NULL")
def test_single_sum_without_input_is_null(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["w"], [(None,), (None,)])
    db = ViDa()
    db.register_csv("t", path, columns=["w"], types=["float"])
    assert db.sql("SELECT sum(w) FROM t").value is None
