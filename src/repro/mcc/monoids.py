"""Monoid library for the comprehension calculus (paper Section 3.2, Table 1).

A monoid of type T is an associative merge function ``⊕`` with a left/right
identity ``Z⊕``. Collection monoids additionally provide a unit function
``U⊕(x)`` building singleton collections. The paper's query language is
``for {q1, ..., qn} yield ⊕ e``; the accumulator ``⊕`` is one of the monoids
defined here.

Implementation note: some of the paper's "monoids" (avg, median) are not
monoids on their output domain but are implemented — exactly as Fegaras &
Maier suggest — via an internal accumulator domain plus a finalizer:
``lift`` maps an element into the accumulator domain, ``merge`` combines
accumulators, ``finalize`` maps the accumulator to the user-visible result.
For true monoids ``lift``/``finalize`` are identities.

Algebraic properties (``commutative``, ``idempotent``) gate which
normalization rewrites are sound (e.g. unnesting a ``set`` generator into a
``bag`` comprehension is only sound because bag-merge is commutative).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from . import types as T


@dataclass(frozen=True, eq=False)
class Monoid:
    """A (possibly lifted) monoid usable as a comprehension accumulator.

    Attributes:
        name: surface syntax name used after ``yield``.
        zero: nullary callable producing the identity accumulator.
        lift: maps one element into the accumulator domain.
        merge: associative binary function on accumulators.
        finalize: maps the final accumulator to the user-visible value.
        commutative / idempotent: algebraic flags used by the normalizer.
        collection: True for set/bag/list/array monoids.
        kind: for collection monoids, the collection kind name.
    """

    name: str
    zero: Callable[[], Any]
    lift: Callable[[Any], Any]
    merge: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]
    commutative: bool = True
    idempotent: bool = False
    collection: bool = False
    kind: str | None = None
    params: tuple = ()
    #: optional in-place fold step ``(acc, element) -> acc`` for monoids
    #: whose ``merge(acc, lift(x))`` would copy the accumulator per element
    step: Callable[[Any, Any], Any] | None = None

    def __eq__(self, other) -> bool:
        """Identity by (name, params): parameterised monoids constructed
        twice (fresh closures) must still compare equal in AST equality."""
        if not isinstance(other, Monoid):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.name, self.params))

    def __reduce__(self):
        """Pickle by (name, params): the lambda fields cannot cross a process
        boundary, but every monoid is reconstructible from the registry —
        required by the process-pool morsel backend, which ships monoids
        inside kernel specs."""
        return (get_monoid, (self.name, self.params))

    def describe(self) -> str:
        """EXPLAIN rendering: the name plus every parameter — plans that
        differ only in a parameter must never share a compiled function."""
        if self.name == "aggs":
            return "aggs(" + ", ".join(
                f"{n}:{k}" for n, k in agg_components(self.params)) + ")"
        if self.params:
            return f"{self.name}({', '.join(map(repr, self.params))})"
        return self.name

    def unit(self, value: Any) -> Any:
        """Build a singleton accumulator ``U⊕(value)``."""
        return self.merge(self.zero(), self.lift(value))

    def accumulate(self, acc: Any, value: Any) -> Any:
        """Fold one element into an accumulator the caller owns."""
        if self.step is not None:
            return self.step(acc, value)
        return self.merge(acc, self.lift(value))

    def fold(self, values) -> Any:
        """Fold an iterable through the monoid and finalize the result."""
        acc = self.zero()
        for v in values:
            acc = self.accumulate(acc, v)
        return self.finalize(acc)

    def result_type(self, elem: T.Type) -> T.Type:
        """The result type of a comprehension with this accumulator over elem."""
        if self.collection:
            return T.CollectionType(self.kind or "bag", elem)
        if self.name in ("sum", "prod", "max", "min", "median"):
            return elem
        if self.name == "avg":
            return T.FLOAT
        if self.name == "count":
            return T.INT
        if self.name in ("all", "any"):
            return T.BOOL
        if self.name == "topk":
            return T.CollectionType("list", elem)
        if self.name == "aggs":
            return T.RecordType(tuple(
                (name, _AGG_TYPES.get(kind, T.ANY))
                for name, kind in agg_components(self.params)))
        return elem


def _append(acc: list, x: Any) -> list:
    acc.append(x)
    return acc


def _bag_merge(a: list, b: list) -> list:
    if not a:
        return b
    if not b:
        return a
    return a + b


def _set_merge(a: set, b: set) -> set:
    if not a:
        return b
    if not b:
        return a
    return a | b


def _hashable(v: Any) -> Any:
    """Convert a runtime value into a hashable representative for set semantics."""
    if isinstance(v, dict):
        return tuple((k, _hashable(x)) for k, x in v.items())
    if isinstance(v, (list, set)):
        return tuple(_hashable(x) for x in v)
    return v


class _SetAcc:
    """Set accumulator that tolerates unhashable elements (dicts, lists).

    Stores canonical hashable keys alongside the original values so results
    keep their natural Python shape.
    """

    __slots__ = ("items",)

    def __init__(self):
        self.items: dict[Any, Any] = {}

    def add(self, value: Any) -> None:
        self.items.setdefault(_hashable(value), value)

    def merge(self, other: "_SetAcc") -> "_SetAcc":
        out = _SetAcc()
        out.items = dict(self.items)
        for k, v in other.items.items():
            out.items.setdefault(k, v)
        return out

    def values(self) -> list:
        return list(self.items.values())


def _set_zero() -> _SetAcc:
    return _SetAcc()


def _set_lift(v: Any) -> _SetAcc:
    acc = _SetAcc()
    acc.add(v)
    return acc


SUM = Monoid("sum", zero=lambda: 0, lift=lambda x: x, merge=lambda a, b: a + b,
             finalize=lambda a: a, commutative=True)
PROD = Monoid("prod", zero=lambda: 1, lift=lambda x: x, merge=lambda a, b: a * b,
              finalize=lambda a: a, commutative=True)
COUNT = Monoid("count", zero=lambda: 0, lift=lambda _x: 1, merge=lambda a, b: a + b,
               finalize=lambda a: a, commutative=True)
MAX = Monoid("max", zero=lambda: None, lift=lambda x: x,
             merge=lambda a, b: b if a is None else (a if b is None else (a if a >= b else b)),
             finalize=lambda a: a, commutative=True, idempotent=True)
MIN = Monoid("min", zero=lambda: None, lift=lambda x: x,
             merge=lambda a, b: b if a is None else (a if b is None else (a if a <= b else b)),
             finalize=lambda a: a, commutative=True, idempotent=True)
ANY = Monoid("any", zero=lambda: False, lift=bool, merge=lambda a, b: a or b,
             finalize=lambda a: a, commutative=True, idempotent=True)
ALL = Monoid("all", zero=lambda: True, lift=bool, merge=lambda a, b: a and b,
             finalize=lambda a: a, commutative=True, idempotent=True)
AVG = Monoid("avg", zero=lambda: (0.0, 0), lift=lambda x: (x, 1),
             merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
             finalize=lambda a: (a[0] / a[1]) if a[1] else None, commutative=True)


def _median_finalize(values: list) -> Any:
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


MEDIAN = Monoid("median", zero=list, lift=lambda x: [x], merge=_bag_merge,
                finalize=_median_finalize, commutative=True, step=_append)

BAG = Monoid("bag", zero=list, lift=lambda x: [x], merge=_bag_merge,
             finalize=lambda a: a, commutative=True, collection=True, kind="bag",
             step=_append)
LIST = Monoid("list", zero=list, lift=lambda x: [x], merge=_bag_merge,
              finalize=lambda a: a, commutative=False, collection=True,
              kind="list", step=_append)
SET = Monoid("set", zero=_set_zero, lift=_set_lift,
             merge=lambda a, b: a.merge(b),
             finalize=lambda a: a.values(), commutative=True, idempotent=True,
             collection=True, kind="set")


def make_topk(k: int) -> Monoid:
    """The top-k monoid: keeps the k largest elements, descending order.

    Accumulator is a bounded min-heap of (key, seq, value) entries; ``seq``
    breaks ties so unorderable payloads never reach comparison.
    """
    if k <= 0:
        raise ValueError("topk requires k >= 1")

    def merge(a: list, b: list) -> list:
        out = list(a)
        for item in b:
            if len(out) < k:
                heapq.heappush(out, item)
            elif item[0] > out[0][0]:
                heapq.heapreplace(out, item)
        return out

    counter = iter(range(10**18))

    def lift(x: Any) -> list:
        pair = isinstance(x, (tuple, list)) and len(x) == 2
        key = x[0] if pair else x
        val = x[1] if pair else x
        return [(key, next(counter), val)]

    def finalize(acc: list) -> list:
        return [val for _key, _seq, val in sorted(acc, key=lambda t: (-_sortkey(t[0]), t[1]))]

    def _sortkey(key: Any):
        return key

    return Monoid(f"topk", zero=list, lift=lift, merge=merge, finalize=finalize,
                  commutative=True, collection=False, params=(k,))


def _orderby_key(pair: tuple) -> tuple:
    """Sort key of one (key, value) pair: NULL keys order below every value,
    so they come first ascending and last descending, as in SQLite."""
    return (pair[0] is not None, pair[0])


def _orderby_lift(x: Any) -> list:
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return [(x[0], x[1])]
    return [(x, x)]


def make_orderby(descending: bool = False, limit: int | None = None) -> Monoid:
    """The ordering monoid: collects (key, value) pairs, yields values sorted by key.

    The accumulator is the flat list of pairs, appended per element and
    sorted once at ``finalize``. With a ``limit`` (SQL ``LIMIT k``) only the
    k best pairs survive, via ``heapq.nsmallest``/``nlargest`` — documented
    equal to ``sorted(...)[:k]``, ties included, so LIMIT keeps exactly the
    rows a full sort would. NULL keys sort first ascending, last descending.
    """

    def step(acc: list, x: Any) -> list:
        acc.extend(_orderby_lift(x))
        return acc

    def finalize(acc: list) -> list:
        if limit is not None:
            best = heapq.nlargest if descending else heapq.nsmallest
            pairs = best(limit, acc, key=_orderby_key)
        else:
            pairs = sorted(acc, key=_orderby_key, reverse=descending)
        return [v for _k, v in pairs]

    name = "orderby_desc" if descending else "orderby"
    return Monoid(name, zero=list, lift=_orderby_lift, merge=_bag_merge,
                  finalize=finalize, commutative=True,
                  params=(descending, limit), step=step)


# -- the product monoid of SQL aggregates ------------------------------------
#
# ``aggs`` folds every aggregate of one SELECT block in a single pass: its
# accumulator is one flat list holding each component's slots side by side
# (``avg`` takes two: sum and count). Components follow SQL's NULL rules:
# NULL inputs are skipped; ``count`` counts non-NULL inputs (``count(*)``
# feeds a constant); ``sum``/``avg``/``min``/``max``/``median`` finalize to
# NULL when they saw no non-NULL input; ``count_distinct`` keeps a set.

#: slots each component occupies in the flat accumulator
AGG_SLOTS = {"count": 1, "count_distinct": 1, "sum": 1, "avg": 2, "min": 1,
             "max": 1, "median": 1}
_AGG_TYPES = {"count": T.INT, "count_distinct": T.INT, "avg": T.FLOAT}


def agg_components(params: tuple) -> list[tuple[str, str]]:
    """``(field, kind)`` per component; a bare kind is named ``agg{i}``."""
    out = []
    for i, p in enumerate(params):
        name, kind = (f"agg{i}", p) if isinstance(p, str) else p
        if kind not in AGG_SLOTS:
            raise KeyError(f"unknown aggregate component {kind!r}")
        out.append((name, kind))
    return out


def agg_offsets(params: tuple) -> list[int]:
    """First accumulator slot of each component."""
    offsets, pos = [], 0
    for _name, kind in agg_components(params):
        offsets.append(pos)
        pos += AGG_SLOTS[kind]
    return offsets


def _agg_zero_slots(kind: str) -> list:
    if kind in ("count", "avg"):
        return [0] * AGG_SLOTS[kind]
    if kind == "median":
        return [[]]
    if kind == "count_distinct":
        return [set()]
    return [None]


def _agg_merge_slot(kind: str, a: list, b: list, i: int, out: list) -> None:
    x, y = a[i], b[i]
    if kind in ("count", "avg"):
        out.append(x + y)
        if kind == "avg":
            out.append(a[i + 1] + b[i + 1])
    elif kind == "median":
        out.append(x + y)
    elif kind == "count_distinct":
        out.append(x | y)
    elif x is None or y is None:
        out.append(y if x is None else x)
    elif kind == "sum":
        out.append(x + y)
    elif kind == "min":
        out.append(x if x <= y else y)
    else:
        out.append(x if x >= y else y)


def _agg_step_slot(kind: str, acc: list, i: int, v: Any) -> None:
    if v is None:
        return
    if kind == "count":
        acc[i] += 1
    elif kind == "avg":
        acc[i] += v
        acc[i + 1] += 1
    elif kind == "median":
        acc[i].append(v)
    elif kind == "count_distinct":
        acc[i].add(v)
    elif acc[i] is None:
        acc[i] = v
    elif kind == "sum":
        acc[i] += v
    elif (v < acc[i]) if kind == "min" else (v > acc[i]):
        acc[i] = v


def _agg_final_slot(kind: str, acc: list, i: int) -> Any:
    if kind == "avg":
        return acc[i] / acc[i + 1] if acc[i + 1] else None
    if kind == "median":
        return _median_finalize(acc[i])
    if kind == "count_distinct":
        return len(acc[i])
    return acc[i]


def make_aggs(params: tuple) -> Monoid:
    """The product monoid of SQL aggregates (see the block comment above).

    ``lift`` takes one tuple of component inputs; ``merge`` works component
    by component; ``finalize`` returns the record of component results.

    >>> m = get_monoid("aggs", (("n", "count"), ("s", "sum"), ("a", "avg")))
    >>> m.fold([(1, 2, 2), (1, None, 4)])
    {'n': 2, 's': 2, 'a': 3.0}
    """
    comps = agg_components(params)
    kinds = [kind for _name, kind in comps]
    offsets = agg_offsets(params)
    plan = list(zip(kinds, offsets))

    def zero() -> list:
        out: list = []
        for kind in kinds:
            out.extend(_agg_zero_slots(kind))
        return out

    def step(acc: list, inputs) -> list:
        for (kind, i), v in zip(plan, inputs):
            _agg_step_slot(kind, acc, i, v)
        return acc

    def merge(a: list, b: list) -> list:
        out: list = []
        for kind, i in plan:
            _agg_merge_slot(kind, a, b, i, out)
        return out

    def finalize(acc: list) -> dict:
        return {name: _agg_final_slot(kind, acc, i)
                for (name, _k), (kind, i) in zip(comps, plan)}

    return Monoid("aggs", zero=zero, lift=lambda x: step(zero(), x),
                  merge=merge, finalize=finalize, commutative=True,
                  params=tuple(params), step=step)


_REGISTRY: dict[str, Monoid] = {
    m.name: m
    for m in (SUM, PROD, COUNT, MAX, MIN, ANY, ALL, AVG, MEDIAN, BAG, LIST, SET)
}
_REGISTRY["or"] = ANY
_REGISTRY["and"] = ALL
_REGISTRY["exists"] = ANY
_REGISTRY["union"] = SET


def get_monoid(name: str, params: tuple = ()) -> Monoid:
    """Look up a monoid by surface name; parameterised monoids take params.

    >>> get_monoid('sum').fold([1, 2, 3])
    6
    >>> get_monoid('topk', (2,)).fold([5, 1, 9, 3])
    [9, 5]
    """
    if name == "topk":
        if len(params) != 1:
            raise KeyError("topk requires one parameter: k")
        return make_topk(int(params[0]))
    if name in ("orderby", "orderby_desc"):
        return make_orderby(descending=name.endswith("desc"),
                            limit=params[1] if len(params) > 1 else None)
    if name == "aggs":
        return make_aggs(tuple(params))
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown monoid: {name!r}") from None


def monoid_names() -> tuple[str, ...]:
    """All registered non-parameterised monoid names plus parameterised ones."""
    return tuple(sorted(_REGISTRY)) + ("topk", "orderby", "orderby_desc")


def is_collection_monoid(name: str) -> bool:
    return name in ("bag", "list", "set", "union")


def subsumes(outer: Monoid, inner: Monoid) -> bool:
    """True when a generator over an ``inner``-collection may be unnested into
    an ``outer`` comprehension (the ⊗ ⊑ ⊕ condition of Fegaras & Maier).

    The conditions: merging order may be lost only if the outer monoid is
    commutative; duplicate collapse in the inner collection is only safe if
    the outer monoid is idempotent or the inner monoid preserves duplicates.
    """
    if not inner.collection:
        return False
    if not outer.commutative and inner.commutative:
        # e.g. list comprehension over a set/bag generator: order undefined.
        return False
    if inner.idempotent and not outer.idempotent:
        # A set generator feeding a bag/sum accumulator must NOT be unnested:
        # the set's duplicate elimination is semantically significant and
        # inlining the inner qualifiers would re-introduce duplicates.
        return False
    return True
