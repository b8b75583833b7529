"""SQL GROUP BY as one grouped fold — against a single filtered scan.

A GROUP BY plans as ``Nest`` over one chunked scan: every aggregate of the
block folds into the ``aggs`` product monoid, one hash-table probe per row.
The cost of grouping should therefore be close to the cost of reading the
file once. This benchmark times, on fresh sessions over one 20k-row CSV:

- ``GROUP BY name`` with ~1.6k groups and three aggregates;
- a single filtered scan of the same two columns (``sum(x)`` with a
  ``<>`` filter on ``name``);

both cold (raw file, positional map built on the way) and warm (the
second run of each query, served from the cache the first run filled).
The cold GROUP BY must run within 2x of the cold filtered scan, and every
answer must equal stdlib ``sqlite3`` over the same rows.
"""

import math
import random
import sqlite3
import time

from repro.bench import emit, table
from repro.core.session import ViDa
from repro.formats import write_csv

ROWS = 20_000
GROUPS = 1_600
GROUP_BY = "SELECT name, count(*), sum(x), max(y) FROM t GROUP BY name"
FILTERED = "SELECT sum(x) FROM t WHERE name <> 'n0'"


def _rows() -> list[tuple]:
    rng = random.Random(2015)
    return [(i, f"n{rng.randrange(GROUPS)}", rng.randrange(1000),
             None if rng.random() < 0.1 else rng.randrange(10**6) / 100)
            for i in range(ROWS)]


def _best(path: str, sql: str, repeats: int = 5):
    """Best cold and best warm seconds over ``repeats`` fresh sessions."""
    cold = warm = float("inf")
    value = None
    for _ in range(repeats):
        db = ViDa()
        db.register_csv("t", path)
        t0 = time.perf_counter()
        value = db.sql(sql).value
        cold = min(cold, time.perf_counter() - t0)
        t0 = time.perf_counter()
        assert db.sql(sql).stats.cache_only
        warm = min(warm, time.perf_counter() - t0)
        db.close()
    return cold, warm, value


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is want
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9)
    return got == want


def test_group_by_close_to_one_scan(benchmark, tmp_path):
    rows = _rows()
    path = str(tmp_path / "t.csv")
    write_csv(path, ["id", "name", "x", "y"], rows)
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE t (id, name, x, y)")
    con.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)

    def run():
        return _best(path, GROUP_BY), _best(path, FILTERED)

    (g_cold, g_warm, groups), (f_cold, f_warm, total) = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    want = {r[0]: r[1:] for r in con.execute(GROUP_BY)}
    got = {r["name"]: tuple(r.values())[1:] for r in groups}
    assert len(got) == len(want) > 1_500
    assert got.keys() == want.keys()
    assert all(all(map(_same, got[k], want[k])) for k in want)
    assert _same(total, con.execute(FILTERED).fetchone()[0])

    lines = table(
        ["query", "cold (ms)", "warm (ms)"],
        [[f"GROUP BY name ({len(got)} groups)", f"{g_cold * 1e3:.1f}",
          f"{g_warm * 1e3:.1f}"],
         ["filtered scan, same columns", f"{f_cold * 1e3:.1f}",
          f"{f_warm * 1e3:.1f}"],
         ["ratio", f"{g_cold / f_cold:.2f}x", f"{g_warm / f_warm:.2f}x"]],
    )
    lines.append("")
    lines.append(f"{ROWS} rows; best of 5 fresh sessions; answers equal "
                 "sqlite3.")
    emit("SQL GROUP BY vs a single filtered scan", lines)

    assert g_cold <= 2.0 * f_cold, (
        f"cold GROUP BY took {g_cold / f_cold:.2f}x a single filtered scan "
        "of the same file; expected <= 2x"
    )
