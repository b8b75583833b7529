"""SQL aggregate blocks plan as one grouped fold over one chunked scan.

Counted work, not timings: a cold GROUP BY reads each raw row exactly once,
a warm one is served from the cache, EXPLAIN shows one ``Nest`` over one
scan, and no SQL aggregate statement falls back to the row-at-a-time
``QueryRuntime.iter_source`` path.
"""

from __future__ import annotations

import importlib

import pytest

from repro import ViDa
from repro.core.executor.runtime import QueryRuntime
from repro.errors import ParseError
from repro.core.optimizer import cost as C
from repro.formats import write_csv
from repro.languages.sql import translate_sql
from repro.mcc import ast as A
from repro.mcc.algebra import NestOp, ReduceOp, ScanOp, SelectOp
from repro.mcc.normalize import normalize
from repro.mcc.translate import translate

MCC_TRANSLATE = importlib.import_module("repro.mcc.translate")
ENGINES = ("jit", "static")
N = 300

AGGREGATE_STATEMENTS = [
    "SELECT cat, count(*), sum(qty), avg(score) FROM F GROUP BY cat",
    "SELECT cat, sub, max(qty) FROM F WHERE qty > 3 GROUP BY cat, sub",
    "SELECT cat FROM F GROUP BY cat HAVING median(score) > 1",
    "SELECT cat, count(DISTINCT sub) FROM F GROUP BY cat",
    "SELECT count(*), sum(qty), min(score), count(DISTINCT cat) FROM F",
    "SELECT count(DISTINCT cat) FROM F",
    "SELECT count(score) FROM F",
    "SELECT median(score) FROM F",
    "SELECT sum(qty) FROM F WHERE cat <> 'c1'",
]


@pytest.fixture()
def fact_csv(tmp_path):
    path = tmp_path / "fact.csv"
    write_csv(path, ["id", "cat", "sub", "qty", "score"],
              [(i, f"c{i % 4}", i % 7, i % 11,
                None if i % 9 == 0 else i / 8) for i in range(N)])
    return str(path)


def _session(path, **kwargs) -> ViDa:
    db = ViDa(**kwargs)
    db.register_csv("F", path)
    return db


@pytest.mark.parametrize("engine", ENGINES)
def test_cold_group_by_reads_each_row_once_warm_is_cached(fact_csv, engine):
    db = _session(fact_csv)
    sql = "SELECT cat, count(*), sum(qty), avg(score) FROM F GROUP BY cat"
    cold = db.sql(sql, engine=engine)
    assert cold.stats.raw_rows == N
    warm = db.sql(sql, engine=engine)
    assert warm.stats.raw_rows == 0
    assert warm.stats.cache_only and warm.stats.cache_rows == N
    assert sorted(map(tuple, (r.values() for r in warm.value))) == \
        sorted(map(tuple, (r.values() for r in cold.value)))
    assert {r["cat"]: r["col1"] for r in cold.value} == \
        {f"c{k}": N // 4 for k in range(4)}


def test_explain_shows_one_nest_over_one_scan(fact_csv):
    db = _session(fact_csv)
    result = db.sql("SELECT cat, sum(qty) AS total FROM F GROUP BY cat "
                    "HAVING count(*) > 1")
    plan = result.plan_text
    assert plan.count("Nest[") == 1 and plan.count("Scan(") == 1
    assert "aggs(a0:sum, a1:count)" in plan
    assert "Filter[" in plan  # HAVING reads the hidden count component


def test_unnesting_builds_nest_from_correlated_encoding(fact_csv):
    db = _session(fact_csv)
    expr = translate_sql("SELECT cat, sum(qty), sum(qty) FROM F GROUP BY cat "
                         "HAVING count(*) > 2", db.catalog)
    # the SQL layer stays a syntax translation: correlated comprehensions
    assert isinstance(expr, A.Comprehension)
    gen = expr.qualifiers[0]
    assert isinstance(gen, A.Generator) and gen.source.monoid.name == "set"
    plan = translate(normalize(expr), db.catalog.names())
    assert isinstance(plan, ReduceOp) and isinstance(plan.child, SelectOp)
    nest = plan.child.child
    assert isinstance(nest, NestOp) and isinstance(nest.child, ScanOp)
    # the two sum(qty) share one component; count(*) is hidden
    assert [kind for _n, kind in nest.monoid.params] == ["sum", "count"]


@pytest.mark.parametrize("engine", ENGINES)
def test_no_sql_aggregate_reads_through_iter_source(fact_csv, engine,
                                                    monkeypatch):
    def forbidden(self, source):
        raise AssertionError(f"row-at-a-time scan of {source!r}")

    monkeypatch.setattr(QueryRuntime, "iter_source", forbidden)
    db = _session(fact_csv)
    for sql in AGGREGATE_STATEMENTS:
        for _ in range(2):  # cold, then warm
            result = db.sql(sql, engine=engine)
            assert result.plan_text, sql  # planned, not interpreted


@pytest.mark.parametrize("engine", ENGINES)
def test_multi_aggregate_over_empty_input_follows_sql(fact_csv, engine):
    db = _session(fact_csv)
    out = db.sql("SELECT count(*) AS n, count(score) AS c, sum(qty) AS s, "
                 "avg(score) AS a, max(cat) AS m, count(DISTINCT sub) AS d "
                 "FROM F WHERE qty > 100", engine=engine).value
    assert out == {"n": 0, "c": 0, "s": None, "a": None, "m": None, "d": 0}


@pytest.mark.parametrize("engine", ENGINES)
def test_group_sum_over_null_measure(tmp_path, engine):
    path = tmp_path / "dim.csv"
    write_csv(path, ["region", "weight"],
              [("r0", None), ("r0", 1.5), ("r1", None), ("r1", None)])
    db = ViDa()
    db.register_csv("D", path)
    out = db.sql("SELECT region, sum(weight), count(weight) FROM D "
                 "GROUP BY region", engine=engine).value
    assert out == [{"region": "r0", "col1": 1.5, "col2": 1},
                   {"region": "r1", "col1": None, "col2": 0}]


@pytest.mark.parametrize("engine", ENGINES)
def test_not_equal_drops_null_rows(tmp_path, engine):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "label"], [(1, "a"), (2, None), (3, "b")])
    db = ViDa()
    db.register_csv("T", path)
    out = db.sql("SELECT k FROM T WHERE label <> 'a'", engine=engine).value
    assert out == [{"k": 3}]
    # comprehension syntax keeps the calculus meaning of !=
    assert db.query("for { t <- T, t.label != \"a\" } yield bag t.k",
                    engine=engine).value == [2, 3]


@pytest.mark.parametrize("engine", ENGINES)
def test_not_follows_three_valued_logic(tmp_path, engine):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "label"], [(1, "a"), (2, None), (3, "b")])
    db = ViDa()
    db.register_csv("T", path)

    def keys(where):
        return [r["k"] for r in db.sql(f"SELECT k FROM T WHERE {where}",
                                       engine=engine).value]

    # a NULL label makes every comparison NULL, negated or not
    assert keys("NOT (label <> 'a')") == [1]
    assert keys("NOT (label = 'a')") == [3]
    assert keys("label NOT IN ('a')") == [3]
    assert keys("NOT (NOT (label <> 'a') AND k < 3)") == [3]
    assert keys("NOT (label IS NULL)") == [1, 3]


@pytest.mark.parametrize("engine", ENGINES)
def test_unnested_grouping_answers_like_the_correlated_form(tmp_path, engine,
                                                             monkeypatch):
    path = tmp_path / "t.csv"
    write_csv(path, ["r", "w", "c"],
              [("a", 1.0, "x"), ("a", None, None), ("b", None, "y"),
               ("b", None, "x"), (None, 2.0, "x")])
    calculus = (
        "for { g <- for { t <- T } yield set (k := t.r) } yield bag "
        "(k := g.k, s := for { t <- T, t.r = g.k } yield sum t.w, "
        "n := for { t <- T, t.r = g.k } yield count t.w, "
        "m := for { t <- T, t.r = g.k, t.c = \"x\" } yield max t.w)")
    sql = ("SELECT r, sum(w) AS s, count(w), count(DISTINCT c), avg(w), "
           "median(w), min(c) FROM T GROUP BY r HAVING count(*) > 1")

    def answers(nested: bool):
        db = ViDa()
        db.register_csv("T", path)
        out = [db.query(calculus, engine=engine), db.sql(sql, engine=engine)]
        assert all(("Nest[" in r.plan_text) == nested for r in out)
        return [sorted(r.value, key=repr) for r in out]

    unnested = answers(True)
    monkeypatch.setattr(MCC_TRANSLATE, "unnest_grouping", lambda c, s: None)
    assert answers(False) == unnested
    # the calculus sum monoid's zero is 0; SQL's sum over no value is NULL
    assert {r["k"]: r["s"] for r in unnested[0]}["b"] == 0
    assert {r["r"]: r["s"] for r in unnested[1]}["b"] is None


@pytest.mark.parametrize("engine", ENGINES)
def test_order_by_nulls_first_ascending_last_descending(tmp_path, engine):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "w"], [(1, 2.0), (2, None), (3, 1.0), (4, 2.0)])
    db = ViDa()
    db.register_csv("T", path)
    asc = db.sql("SELECT k FROM T ORDER BY w", engine=engine).value
    assert [r["k"] for r in asc] == [2, 3, 1, 4]
    desc = db.sql("SELECT k FROM T ORDER BY w DESC", engine=engine).value
    assert [r["k"] for r in desc] == [1, 4, 3, 2]
    top = db.sql("SELECT k FROM T ORDER BY w DESC LIMIT 2", engine=engine)
    assert [r["k"] for r in top.value] == [1, 4]


def test_plans_differing_only_in_monoid_params_compile_apart(fact_csv):
    db = _session(fact_csv)
    five = db.sql("SELECT id FROM F ORDER BY score DESC LIMIT 5").value
    seven = db.sql("SELECT id FROM F ORDER BY score DESC LIMIT 7").value
    assert len(five) == 5 and len(seven) == 7 and seven[:5] == five
    named = db.sql("SELECT count(*) AS n, sum(qty) AS s FROM F").value
    renamed = db.sql("SELECT count(*) AS a, sum(qty) AS b FROM F").value
    assert list(named) == ["n", "s"] and list(renamed) == ["a", "b"]


@pytest.mark.parametrize("engine", ENGINES)
def test_group_by_matches_across_thread_morsels(fact_csv, engine,
                                                monkeypatch):
    # scores are multiples of 1/8, so per-morsel float sums are exact
    monkeypatch.setattr(C, "MORSEL_SETUP_COST", 1e-9)
    sql = ("SELECT sub, count(*), sum(score), median(qty), "
           "count(DISTINCT cat) FROM F GROUP BY sub")
    serial = _session(fact_csv).sql(sql, engine=engine).value
    db = _session(fact_csv, parallelism=2, batch_size=16)
    for _ in range(2):  # cold, then cache-served
        result = db.sql(sql, engine=engine)
        assert "parallel=2" in result.plan_text
        assert result.value == serial


@pytest.mark.parametrize("engine", ENGINES)
def test_group_by_expression_key_and_aggregate_arithmetic(fact_csv, engine):
    db = _session(fact_csv)
    out = db.sql("SELECT qty % 3 AS m, sum(qty) / count(*) AS mean FROM F "
                 "GROUP BY qty % 3 HAVING qty % 3 > 0", engine=engine).value
    want = {}
    for i in range(N):
        want.setdefault(i % 11 % 3, []).append(i % 11)
    assert {r["m"]: r["mean"] for r in out} == pytest.approx(
        {k: sum(v) / len(v) for k, v in want.items() if k > 0})


def test_column_outside_group_by_is_rejected(fact_csv):
    db = _session(fact_csv)
    with pytest.raises(ParseError):
        db.sql("SELECT cat, qty FROM F GROUP BY cat")
    with pytest.raises(ParseError):
        db.sql("SELECT cat FROM F GROUP BY cat HAVING qty > 1")


def test_select_star_with_group_by_is_rejected(fact_csv):
    db = _session(fact_csv)
    with pytest.raises(ParseError):
        db.sql("SELECT * FROM F GROUP BY cat")


def test_distinct_outside_count_is_rejected(fact_csv):
    db = _session(fact_csv)
    with pytest.raises(ParseError):
        db.sql("SELECT sum(DISTINCT qty) FROM F")


@pytest.mark.parametrize("engine", ENGINES)
def test_product_fold_agrees_with_and_without_vector_filters(fact_csv, engine):
    sql = ("SELECT count(*), sum(qty), avg(score), median(score), "
           "count(DISTINCT sub), max(cat) FROM F WHERE qty > 2")
    answers = []
    for vec in (True, False):
        db = _session(fact_csv, vector_filters=vec, batch_size=16)
        answers.append([db.sql(sql, engine=engine).value for _ in range(2)])
    assert answers[0] == answers[1]
