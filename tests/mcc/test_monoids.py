"""Monoid laws (property-based) and monoid behaviour tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcc.monoids import (
    ALL,
    ANY,
    AVG,
    BAG,
    COUNT,
    LIST,
    MAX,
    MIN,
    SET,
    SUM,
    get_monoid,
    is_collection_monoid,
    make_orderby,
    make_topk,
    monoid_names,
    subsumes,
)

_LAW_MONOIDS = [SUM, COUNT, MAX, MIN, ANY, ALL, BAG, LIST, AVG]


@pytest.mark.parametrize("monoid", _LAW_MONOIDS, ids=lambda m: m.name)
@given(values=st.lists(st.integers(min_value=-100, max_value=100), max_size=8))
@settings(max_examples=60, deadline=None)
def test_identity_law(monoid, values):
    """Z⊕ ⊕ x = x ⊕ Z⊕ = x for every lifted accumulator."""
    acc = monoid.zero()
    for v in values:
        acc = monoid.merge(acc, monoid.lift(v))
    assert monoid.finalize(monoid.merge(monoid.zero(), acc)) == monoid.finalize(acc)
    assert monoid.finalize(monoid.merge(acc, monoid.zero())) == monoid.finalize(acc)


@pytest.mark.parametrize("monoid", _LAW_MONOIDS, ids=lambda m: m.name)
@given(
    a=st.lists(st.integers(min_value=-50, max_value=50), max_size=5),
    b=st.lists(st.integers(min_value=-50, max_value=50), max_size=5),
    c=st.lists(st.integers(min_value=-50, max_value=50), max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_associativity_law(monoid, a, b, c):
    def fold(values):
        acc = monoid.zero()
        for v in values:
            acc = monoid.merge(acc, monoid.lift(v))
        return acc

    left = monoid.merge(monoid.merge(fold(a), fold(b)), fold(c))
    right = monoid.merge(fold(a), monoid.merge(fold(b), fold(c)))
    assert monoid.finalize(left) == monoid.finalize(right)


@given(
    a=st.lists(st.integers(), max_size=6),
    b=st.lists(st.integers(), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_commutative_monoids_commute(a, b):
    for monoid in (SUM, COUNT, MAX, MIN, ANY, ALL):
        fa = monoid.zero()
        for v in a:
            fa = monoid.merge(fa, monoid.lift(v))
        fb = monoid.zero()
        for v in b:
            fb = monoid.merge(fb, monoid.lift(v))
        assert monoid.finalize(monoid.merge(fa, fb)) == monoid.finalize(
            monoid.merge(fb, fa)
        )


@given(st.lists(st.integers(min_value=0, max_value=20), max_size=20))
@settings(max_examples=60, deadline=None)
def test_set_monoid_idempotent(values):
    out = SET.fold(values + values)
    assert sorted(out) == sorted(set(values))


def test_set_monoid_unhashable_elements():
    out = SET.fold([{"a": 1}, {"a": 1}, {"a": 2}])
    assert len(out) == 2


def test_avg():
    assert AVG.fold([1, 2, 3, 4]) == 2.5
    assert AVG.fold([]) is None


def test_median_odd_even():
    median = get_monoid("median")
    assert median.fold([5, 1, 3]) == 3
    assert median.fold([4, 1, 3, 2]) == 2.5
    assert median.fold([]) is None


def test_topk():
    topk = make_topk(3)
    assert topk.fold([5, 9, 1, 7, 3]) == [9, 7, 5]
    assert topk.fold([1]) == [1]


def test_topk_with_key_value_pairs():
    topk = make_topk(2)
    out = topk.fold([(3, "c"), (9, "i"), (5, "e")])
    assert out == ["i", "e"]


def test_topk_invalid_k():
    with pytest.raises(ValueError):
        make_topk(0)


def test_orderby():
    asc = make_orderby()
    assert asc.fold([(3, "c"), (1, "a"), (2, "b")]) == ["a", "b", "c"]
    desc = make_orderby(descending=True)
    assert desc.fold([(3, "c"), (1, "a"), (2, "b")]) == ["c", "b", "a"]


def test_get_monoid_aliases():
    assert get_monoid("or").name == "any"
    assert get_monoid("and").name == "all"
    assert get_monoid("union").name == "set"


def test_get_monoid_unknown():
    with pytest.raises(KeyError):
        get_monoid("nope")
    with pytest.raises(KeyError):
        get_monoid("topk")  # missing parameter


def test_monoid_names_contains_core():
    names = monoid_names()
    for required in ("sum", "bag", "set", "list", "max", "avg", "topk"):
        assert required in names


def test_is_collection_monoid():
    assert is_collection_monoid("bag")
    assert not is_collection_monoid("sum")


def test_subsumes_rules():
    # bag into sum: fine (both commutative, bag not idempotent)
    assert subsumes(SUM, BAG)
    # set into bag: NOT allowed (dedup is significant)
    assert not subsumes(BAG, SET)
    # set into set: fine
    assert subsumes(SET, SET)
    # bag into list: order of a bag is undefined
    assert not subsumes(LIST, BAG)
    # list into list: fine
    assert subsumes(LIST, LIST)
    # non-collection inner never unnests
    assert not subsumes(SUM, SUM)


# -- the aggs product monoid ---------------------------------------------------

_AGGS = get_monoid("aggs", (("n", "count"), ("d", "count_distinct"),
                            ("s", "sum"), ("a", "avg"), ("lo", "min"),
                            ("hi", "max"), ("m", "median")))
_cell = st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
_inputs = st.lists(st.tuples(*[_cell] * 7), max_size=6)


def _aggs_fold(rows):
    acc = _AGGS.zero()
    for row in rows:
        acc = _AGGS.merge(acc, _AGGS.lift(row))
    return acc


@given(a=_inputs, b=_inputs, c=_inputs)
@settings(max_examples=60, deadline=None)
def test_aggs_monoid_laws(a, b, c):
    fa, fb, fc = _aggs_fold(a), _aggs_fold(b), _aggs_fold(c)
    whole = _AGGS.finalize(fa)
    assert _AGGS.finalize(_AGGS.merge(_AGGS.zero(), fa)) == whole
    assert _AGGS.finalize(_AGGS.merge(fa, _AGGS.zero())) == whole
    assert _AGGS.finalize(_AGGS.merge(_AGGS.merge(fa, fb), fc)) == \
        _AGGS.finalize(_AGGS.merge(fa, _AGGS.merge(fb, fc)))
    assert _AGGS.finalize(_AGGS.merge(fa, fb)) == \
        _AGGS.finalize(_AGGS.merge(fb, fa))
    # the in-place step folds to the same accumulator as merge(lift)
    assert _AGGS.fold(a) == whole


@given(rows=_inputs)
@settings(max_examples=60, deadline=None)
def test_aggs_components_follow_sql_null_rules(rows):
    out = _AGGS.fold(rows)
    cols = [[r[i] for r in rows if r[i] is not None] for i in range(7)]
    assert out["n"] == len(cols[0])
    assert out["d"] == len(set(cols[1]))
    assert out["s"] == (sum(cols[2]) if cols[2] else None)
    assert out["a"] == (sum(cols[3]) / len(cols[3]) if cols[3] else None)
    assert out["lo"] == (min(cols[4]) if cols[4] else None)
    assert out["hi"] == (max(cols[5]) if cols[5] else None)
    assert out["m"] == get_monoid("median").fold(cols[6])


def test_aggs_pickles_by_name_and_params():
    import pickle

    clone = pickle.loads(pickle.dumps(_AGGS))
    assert clone == _AGGS
    assert clone.fold([(1,) * 7]) == _AGGS.fold([(1,) * 7])
    assert get_monoid("aggs", ("count", "sum")).fold([(1, 2)]) == \
        {"agg0": 1, "agg1": 2}
    assert _AGGS.describe().startswith("aggs(n:count, d:count_distinct")
    with pytest.raises(KeyError):
        get_monoid("aggs", ("bogus",))


@given(pairs=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 5)),
                                st.integers()), max_size=12),
       k=st.integers(1, 6), descending=st.booleans())
@settings(max_examples=80, deadline=None)
def test_orderby_limit_is_sorted_prefix_nulls_low(pairs, k, descending):
    def key(p):
        return (p[0] is not None, p[0])

    full = [v for _k, v in sorted(pairs, key=key, reverse=descending)]
    assert make_orderby(descending).fold(pairs) == full
    assert make_orderby(descending, limit=k).fold(pairs) == full[:k]
    assert get_monoid("orderby_desc" if descending else "orderby",
                      (descending, k)).fold(pairs) == full[:k]
