"""Seeded inputs, operation schedules and independently computed answers.

Everything a run needs is derived from ``(workload, seed)`` and written once
into a cache directory: the raw files, the schedule of operations
(``ops.json``) and one expected answer per operation (``expected.jsonl``).
The expected answers never come from the program under test: SQL answers
come from an in-memory stdlib ``sqlite3`` mirror loaded with the same rows,
HBP answers from a plain-Python evaluation of each query's ``QuerySpec``
over rows read with :mod:`csv` and :mod:`json`.

``run.py`` runs this module in a process of its own (``python3
perfbench/inputs.py --workload W --seed N``), so neither generation nor the
oracle counts towards the workload process's time or memory: on Linux a
child inherits its parent's peak resident set through ``exec``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import sqlite3

#: bump when generated inputs or schedules change, so stale caches are not reused
INPUT_VERSION = 2

#: the HBP scale: the paper's shape (2,001-column genetics, nested JSON), sized
#: so that one 150-query cold session takes a few seconds
HBP_SCALE = {"patients_rows": 1000, "genetics_rows": 700, "brain_objects": 400}
#: the seed of the HBP query sequence. The sequence is fixed and only the data
#: follows ``--seed``: the generator's query mix (the share of 3-way joins,
#: the attributes drawn) moves the workload's cost by over 20% between seeds,
#: which would hide any change smaller than that
HBP_QUERY_SEED = 42

FACT_ROWS = 8_000
FACT_CATS = ["c0", "c1", "c2", "c3"]
DIM_ROWS = 400
DIM_BUCKETS = 100
DIM_REGIONS = 8
#: the dimension table is fixed (seed-independent): the three known faults
#: run over it and must fail on every run, whatever the seed
DIM_SEED = 20150104
SQL_ROUNDS = 2

EVENT_ROWS = 4000
EVENT_TAIL_ROWS = 300
EVENT_APPENDS = 3
EVENT_KINDS = ["view", "click", "buy", "share"]
EVENT_REGIONS = ["eu", "us", "apac"]


def cache_dir(root: str, workload: str, seed: int) -> str:
    return os.path.join(root, ".bench_cache",
                        f"{workload}-s{seed}-v{INPUT_VERSION}")


def ensure_inputs(root: str, workload: str, seed: int) -> str:
    """Generate the inputs of ``(workload, seed)`` unless cached; return the
    directory. Generation writes into a scratch directory renamed into place
    last, so an interrupted generation is never mistaken for a finished one."""
    final = cache_dir(root, workload, seed)
    if os.path.exists(os.path.join(final, "ops.json")):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        GENERATORS[workload](tmp, seed)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def _write_outputs(directory: str, meta: dict, ops: list[dict],
                   expected: list[dict]) -> None:
    with open(os.path.join(directory, "expected.jsonl"), "w") as fh:
        for answer in expected:
            fh.write(json.dumps(answer) + "\n")
    with open(os.path.join(directory, "ops.json"), "w") as fh:
        json.dump({"meta": meta, "ops": ops}, fh, indent=0)


def _write_csv(path: str, columns: list[str] | None, rows) -> None:
    """Plain CSV: ``\\n`` line ends, empty cell = NULL, floats by repr; no
    header line when ``columns`` is None (an appended tail)."""
    def cell(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        if columns is not None:
            fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def _mirror(tables: dict[str, tuple[list[str], list]]) -> sqlite3.Connection:
    """In-memory sqlite3 copy of the generated rows (None → NULL)."""
    con = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        con.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        marks = ", ".join("?" * len(columns))
        con.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    return con


def _sqlite_answer(con: sqlite3.Connection, text: str, ordered: bool) -> dict:
    rows = [list(r) for r in con.execute(text).fetchall()]
    return {"rows": rows, "ordered": ordered}


def _distinct_scores(rng: random.Random, n: int) -> list[float]:
    """Distinct two-decimal floats, so ORDER BY ... LIMIT has no ties."""
    return [k / 100 for k in rng.sample(range(1_000_000), n)]


# ---------------------------------------------------------------------------
# sql_analytics
# ---------------------------------------------------------------------------

FACT_COLUMNS = ["id", "cat", "dkey", "val", "qty", "score"]
DIM_COLUMNS = ["dkey", "label", "region", "bucket", "weight"]

#: the three faults of the program this workload keeps as counted failures;
#: they run over the fixed dimension table so mending them adds little time
FAULT_OPS = [
    ("group-sum-null",
     "SELECT region, sum(weight) FROM dim GROUP BY region", False),
    ("order-by-null",
     "SELECT dkey, weight FROM dim ORDER BY weight", True),
    ("not-equal-null",
     "SELECT dkey FROM dim WHERE label <> 'l3'", False),
]


def _dim_rows() -> list[list]:
    rng = random.Random(DIM_SEED)
    rows = []
    for k in range(DIM_ROWS):
        rows.append([
            k,
            None if rng.random() < 0.15 else f"l{rng.randrange(20)}",
            f"r{rng.randrange(DIM_REGIONS)}",
            f"b{rng.randrange(DIM_BUCKETS):02d}",
            None if rng.random() < 0.15 else rng.randrange(1, 1000) / 100,
        ])
    return rows


def _fact_rows(rng: random.Random) -> list[list]:
    scores = _distinct_scores(rng, FACT_ROWS)
    return [[i, rng.choice(FACT_CATS), rng.randrange(DIM_ROWS),
             rng.randrange(1000), rng.randrange(1, 51), scores[i]]
            for i in range(FACT_ROWS)]


def _sql_round(rng: random.Random, previous: list[tuple] | None) -> list[tuple]:
    """One round of the SQL mix as (tag, text, ordered) triples; constants
    are drawn from ``rng``. Most statements are cheap selective lookups, as
    in interactive use; five are the slow shapes. Filters always match rows
    (every ``val`` bound lies inside 0..999).

    The mix is sized so that both latency percentiles fall inside a cluster
    of operations of one cost, not on the edge of a gap between two, where
    one noisy sample moves them: the cheap lookups are over half of a pass,
    and the four slowest shapes (two GROUP BYs over ``dim``, one over
    ``fact`` and the multi-aggregate, 0.45-0.75 s each) are 8 of its 53
    operations, so the 90th percentile lies a third of the way into them."""
    c = rng.randrange(300, 700)
    cats = rng.sample(FACT_CATS, 2)
    qtys = rng.sample(range(1, 51), 3)
    ops = [
        # the index trap: the count builds a value index on val, after which
        # the sum, and its verbatim repeat, are answered through that index
        # instead of a cache of score
        ("index-trap-count", f"SELECT count(*) FROM fact WHERE val > {c}", False),
        ("index-trap-sum", f"SELECT sum(score) FROM fact WHERE val > {c}", False),
        ("index-trap-sum", f"SELECT sum(score) FROM fact WHERE val > {c}", False),
    ]
    ops += [("point", f"SELECT id, cat, val, score FROM fact WHERE id = {i}",
             False) for i in rng.sample(range(FACT_ROWS), 8)]
    for width in (50, 20, 10):
        lo = rng.randrange(0, 1000 - width)
        ops.append(("between", f"SELECT id, qty FROM fact WHERE val BETWEEN "
                               f"{lo} AND {lo + width}", False))
    ops += [
        ("in-str", f"SELECT id, val FROM fact WHERE cat IN ('{cats[0]}', "
                   f"'{cats[1]}') AND val < {rng.randrange(100, 300)}", False),
        ("in-int", f"SELECT id, score FROM fact WHERE qty IN "
                   f"({qtys[0]}, {qtys[1]}, {qtys[2]})", False),
        ("join", "SELECT f.id, d.label, d.region FROM fact f JOIN dim d "
                 f"ON f.dkey = d.dkey WHERE f.val < {rng.randrange(50, 150)}",
         False),
        ("group-few", "SELECT cat, sum(qty) FROM fact GROUP BY cat", False),
        ("group-many", "SELECT bucket, count(*) FROM dim GROUP BY bucket", False),
        ("group-many", "SELECT bucket, max(dkey) FROM dim GROUP BY bucket", False),
        ("multi-agg", "SELECT count(*), sum(qty), avg(score) FROM fact "
                      f"WHERE val < {rng.randrange(550, 750)}", False),
        ("order-limit", "SELECT id, score FROM fact ORDER BY score DESC "
                        f"LIMIT {rng.randrange(5, 20)}", True),
        ("distinct", "SELECT DISTINCT cat FROM fact WHERE val > "
                     f"{rng.randrange(0, 900)}", False),
    ]
    if previous is not None:
        # statements a user re-runs verbatim from the round before
        ops += [op for op in previous if op[0] in ("point", "between")][::3]
    return ops


def generate_sql_analytics(directory: str, seed: int) -> None:
    rng = random.Random(seed)
    fact = _fact_rows(rng)
    dim = _dim_rows()
    _write_csv(os.path.join(directory, "fact.csv"), FACT_COLUMNS, fact)
    _write_csv(os.path.join(directory, "dim.csv"), DIM_COLUMNS, dim)
    con = _mirror({"fact": (FACT_COLUMNS, fact), "dim": (DIM_COLUMNS, dim)})
    faults = {tag for tag, _text, _ordered in FAULT_OPS}
    ops, expected, previous = [], [], None
    for k in range(SQL_ROUNDS):
        previous = _sql_round(rng, previous)
        # the known faults run once per pass, at its end
        last = FAULT_OPS if k == SQL_ROUNDS - 1 else []
        for tag, text, ordered in previous + last:
            ops.append({"tag": tag, "sql": text,
                        "fault": tag if tag in faults else None})
            expected.append(_sqlite_answer(con, text, ordered))
    meta = {"files": {"fact": "fact.csv", "dim": "dim.csv"},
            "rows": {"fact": len(fact), "dim": len(dim)}}
    _write_outputs(directory, meta, ops, expected)


# ---------------------------------------------------------------------------
# tenant_server
# ---------------------------------------------------------------------------

EVENT_COLUMNS = ["id", "kind", "region", "val", "amount"]


def _event_rows(rng: random.Random, start: int, n: int,
                amounts: list[float]) -> list[list]:
    return [[i, rng.choice(EVENT_KINDS), rng.choice(EVENT_REGIONS),
             rng.randrange(1000), amounts[i]] for i in range(start, start + n)]


def _tenant_phase(rng: random.Random, phase: int, live_rows: int) -> list[tuple]:
    """One tenant's closed-loop operations for one phase, as
    (tag, template, as_of_phase). ``{src}`` in a template stands
    for the table reference; ``as_of_phase`` names the retained generation
    the statement time-travels to (None = the live file)."""
    ops = [
        # dashboard statements: the same text from both tenants, every phase
        ("dashboard", "SELECT count(*) FROM {src} WHERE kind = 'buy'", None),
        ("dashboard", "SELECT sum(amount) FROM {src} WHERE kind = 'click'", None),
        ("dashboard", "SELECT max(val) FROM {src} WHERE region = 'eu'", None),
    ]
    for _ in range(4):
        ops.append(("point", "SELECT id, kind, amount FROM {src} WHERE id = "
                             f"{rng.randrange(live_rows)}", None))
    for _ in range(3):
        lo = rng.randrange(0, 960)
        ops.append(("range", "SELECT id, amount FROM {src} WHERE val BETWEEN "
                             f"{lo} AND {lo + 25}", None))
    ops.append(("count", "SELECT count(*) FROM {src} WHERE val > "
                         f"{rng.randrange(100, 900)}", None))
    # about a thousand rows back over the wire
    ops.append(("wide", "SELECT id, kind, region, val, amount FROM {src} "
                        f"WHERE val < {rng.randrange(230, 270)}", None))
    ops.append(("dashboard", "SELECT count(*) FROM {src} WHERE kind = 'buy'",
                None))
    for past in sorted(rng.sample(range(phase), min(phase, 2))):
        ops.append(("as-of", "SELECT count(*) FROM {src}", past))
        lo = rng.randrange(0, 900)
        ops.append(("as-of", "SELECT id, amount FROM {src} WHERE val BETWEEN "
                             f"{lo} AND {lo + 25}", past))
    return ops


def generate_tenant_server(directory: str, seed: int) -> None:
    rng = random.Random(seed)
    total = EVENT_ROWS + EVENT_APPENDS * EVENT_TAIL_ROWS
    amounts = _distinct_scores(rng, total)
    rows = _event_rows(rng, 0, EVENT_ROWS, amounts)
    _write_csv(os.path.join(directory, "events.csv"), EVENT_COLUMNS, rows)
    phase_rows = [list(rows)]
    tails = []
    for k in range(EVENT_APPENDS):
        tail = _event_rows(rng, len(rows), EVENT_TAIL_ROWS, amounts)
        name = f"tail{k + 1}.csv"
        _write_csv(os.path.join(directory, name), None, tail)
        tails.append(name)
        rows = rows + tail
        phase_rows.append(list(rows))
    con = _mirror({f"events_g{k}": (EVENT_COLUMNS, r)
                   for k, r in enumerate(phase_rows)})
    ops, expected = [], []
    for phase in range(EVENT_APPENDS + 1):
        for tenant in (0, 1):
            for tag, template, as_of in _tenant_phase(
                    rng, phase, len(phase_rows[phase])):
                ops.append({"tag": tag, "template": template, "phase": phase,
                            "tenant": tenant, "as_of": as_of, "fault": None})
                table = f"events_g{phase if as_of is None else as_of}"
                expected.append(_sqlite_answer(
                    con, template.format(src=table), False))
    meta = {"file": "events.csv", "tails": tails,
            "rows": [len(r) for r in phase_rows]}
    _write_outputs(directory, meta, ops, expected)


# ---------------------------------------------------------------------------
# hbp_session
# ---------------------------------------------------------------------------


def _read_typed_csv(path: str, types: dict[str, type], default: type) -> dict:
    """id → record of converted fields (empty cell → None)."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        convs = [types.get(name, default) for name in header]
        for cells in reader:
            rec = {name: (conv(cell) if cell != "" else None)
                   for name, conv, cell in zip(header, convs, cells)}
            out[rec["id"]] = rec
    return out


def _get_path(obj, dotted: str):
    for part in dotted.split("."):
        if not isinstance(obj, dict):
            return None
        obj = obj.get(part)
    return obj


_FILTER_OPS = {
    "=": lambda a, b: a is not None and a == b,
    "<": lambda a, b: a is not None and a < b,
    "<=": lambda a, b: a is not None and a <= b,
    ">": lambda a, b: a is not None and a > b,
    ">=": lambda a, b: a is not None and a >= b,
}


def _hbp_answer(spec, tables: dict[str, dict]) -> dict:
    """Evaluate one QuerySpec by nested-loop-free id lookups: every HBP
    relation is keyed by ``id``, and every query joins on it."""
    first, *rest = spec.sources
    matches = []
    for key, rec in tables[first].items():
        joined = {first: rec}
        for source in rest:
            other = tables[source].get(key)
            if other is None:
                break
            joined[source] = other
        else:
            if all(_FILTER_OPS[f.op](_get_path(joined[src], f.field), f.value)
                   for src, filters in spec.filters.items() for f in filters):
                matches.append(joined)
    if spec.aggregate is not None:
        func, alias = spec.aggregate
        source, field = next((src, f) for src, f, a in spec.project
                             if a == alias)
        values = [_get_path(m[source], field) for m in matches]
        values = [v for v in values if v is not None]
        if func == "count":
            value = len(matches)
        elif not values:
            value = None
        elif func == "avg":
            value = sum(values) / len(values)
        else:
            value = {"max": max, "min": min, "sum": sum}[func](values)
        return {"rows": [[value]], "ordered": False}
    rows = [[_get_path(m[src], f) for src, f, _alias in spec.project]
            for m in matches]
    return {"rows": rows, "ordered": False}


def generate_hbp_session(directory: str, seed: int) -> None:
    from repro.workloads.hbp import HBPConfig, generate_datasets, make_workload

    data = generate_datasets(directory, HBPConfig(seed=seed, **HBP_SCALE))
    queries = make_workload(HBPConfig(seed=HBP_QUERY_SEED, **HBP_SCALE))
    patients = _read_typed_csv(
        data.patients_csv, {"id": int, "age": int, "gender": str, "city": str},
        float)
    genetics = _read_typed_csv(data.genetics_csv, {}, int)
    brain = {}
    with open(data.brain_json) as fh:
        for line in fh:
            obj = json.loads(line)
            brain[obj["id"]] = obj
    tables = {"Patients": patients, "Genetics": genetics, "BrainRegions": brain}
    ops = [{"tag": q.kind, "q": q.comprehension, "fault": None} for q in queries]
    expected = [_hbp_answer(q.spec, tables) for q in queries]
    meta = {"files": {"Patients": "patients.csv", "Genetics": "genetics.csv",
                      "BrainRegions": "brainregions.json"},
            "rows": {"Patients": len(patients), "Genetics": len(genetics),
                     "BrainRegions": len(brain)}}
    _write_outputs(directory, meta, ops, expected)


GENERATORS = {
    "hbp_session": generate_hbp_session,
    "sql_analytics": generate_sql_analytics,
    "tenant_server": generate_tenant_server,
}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="generate one workload's inputs")
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    print(ensure_inputs(args.root, args.workload, args.seed))


if __name__ == "__main__":
    main()
