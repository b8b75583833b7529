"""Translation of normalized comprehensions into the nested relational algebra.

Follows the left-to-right qualifier processing of Fegaras & Maier: each
generator extends the current plan (scan, join, or unnest), each filter
becomes a selection, and the head becomes the final :class:`ReduceOp`.

Generator classification:

- ``v <- Name`` where ``Name`` is a registered source  → :class:`ScanOp`
  (joined to the current plan if one exists);
- ``v <- e.path...`` rooted at an already-bound variable → :class:`UnnestOp`
  (dependent/correlated binding);
- ``v <- <expr>`` with no plan-bound free variables → :class:`ExprScanOp`.

Grouping is unnested first (Fegaras & Maier's rule for the nested
comprehension encoding of GROUP BY): a comprehension whose first generator
ranges over ``set{keys | Q}`` and whose head and filters hold correlated
aggregates ``for {Q, k_i = g.k_i} yield m_j e_j`` becomes

    Reduce(Select*(Nest[keys; aggs(m_1..m_n) (e_1..e_n)](plan(Q))))

— one grouped fold of every aggregate over one pass of ``Q``, with the head
and filters reading the group's components. See :func:`unnest_grouping`.

Nested comprehensions remaining in the head or in predicates after that
(genuinely nested queries, e.g. building a sub-collection per result
record) are kept as expressions; the executors evaluate them as correlated
subplans.
"""

from __future__ import annotations

from ..errors import PlanningError
from . import ast as A
from .algebra import (
    GROUP_FIELD,
    AlgNode,
    ExprScanOp,
    JoinOp,
    NestOp,
    ReduceOp,
    ScanOp,
    SelectOp,
    UnnestOp,
)
from .monoids import agg_components, get_monoid


def translate(comp: A.Comprehension, source_names: set[str] | frozenset[str]) -> ReduceOp:
    """Translate a (normalized) comprehension into an algebra plan.

    ``source_names`` is the set of catalog source names; free variables of
    the comprehension must be drawn from it.
    """
    grouped = unnest_grouping(comp, source_names)
    if grouped is not None:
        return grouped
    return ReduceOp(_plan_qualifiers(comp.qualifiers, source_names),
                    comp.monoid, comp.head)


def _plan_qualifiers(qualifiers, source_names) -> AlgNode:
    """Left-to-right qualifier processing into a plan of scans, joins,
    unnests and selections."""
    plan: AlgNode | None = None
    bound: set[str] = set()
    pending_filters: list[A.Expr] = []

    for q in qualifiers:
        if isinstance(q, A.Generator):
            plan = _extend_with_generator(plan, q, bound, source_names)
            bound.add(q.var)
            # Filters seen before any generator (constants / outer-correlated
            # predicates) attach as soon as a plan exists.
            while pending_filters and plan is not None:
                plan = SelectOp(plan, pending_filters.pop(0))
        elif isinstance(q, A.Filter):
            if plan is None:
                pending_filters.append(q.pred)
            else:
                plan = SelectOp(plan, q.pred)
        elif isinstance(q, A.Bind):
            # Normalization eliminates binds; tolerate leftovers by inlining.
            raise PlanningError(
                f"let-binding {q.var!r} survived normalization; normalize() first"
            )
        else:
            raise PlanningError(f"unknown qualifier {type(q).__name__}")

    if plan is None:
        # Generator-free comprehension: reduces a single unit row, possibly
        # guarded by constant filters: for { p } yield sum e
        plan = ExprScanOp(A.ListLit((A.Const(0),)), A.fresh_var("unit"))
        for pred in pending_filters:
            plan = SelectOp(plan, pred)
    return plan


# ---------------------------------------------------------------------------
# Grouping unnesting
# ---------------------------------------------------------------------------

#: primitive monoids whose ``aggs`` component of the same name folds alike —
#: NULL inputs skipped, NULL over no input — except ``sum``, whose zero is 0
_PRIMITIVE = ("count", "sum", "avg", "min", "max", "median")


def unnest_grouping(comp: A.Comprehension, source_names) -> ReduceOp | None:
    """Rewrite a grouping-shaped comprehension into one Nest, or None.

    The shape is ``⊕{head | g <- set{r | Q}, p_1, ..., p_k}`` where ``Q``
    plans on its own and every use of ``g`` in ``head`` and the ``p_i`` is
    either a key projection ``g.k`` or a correlated aggregate over ``Q``
    restricted to ``g``'s group, ``for {Q, k_1 = g.k_1, ..., F}``:

    - ``m{e | ...}`` for a primitive monoid ``m`` in :data:`_PRIMITIVE`;
    - ``aggs(m){[e] | ...}.f``, one component of the product monoid (the
      SQL translator's form, with SQL's NULL rules).

    Each becomes one component of the ``aggs`` monoid folded by the Nest; a
    residual filter ``F`` guards the component input (a NULL input is
    skipped), and identical aggregates share one component. The rewrite
    keeps the calculus meaning: a primitive ``sum`` reads 0 where its
    component saw no non-NULL input, and ``count`` counts rows. A scalar
    set head ``r`` is a single key. Anything else returns None and the
    comprehension plans as written (its aggregates then run as correlated
    subqueries).
    """
    quals = comp.qualifiers
    if not quals or not isinstance(quals[0], A.Generator):
        return None
    gen = quals[0]
    src = gen.source
    if not (isinstance(src, A.Comprehension) and src.monoid.name == "set"):
        return None
    if not all(isinstance(q, A.Filter) for q in quals[1:]):
        return None
    g = gen.var
    uses = [comp.head] + [q.pred for q in quals[1:]]
    if isinstance(src.head, A.RecordCons):
        keys = src.head.fields
    else:
        keys = (("_key", src.head),)
        uses = [A.substitute(e, g, A.Proj(A.Var(g), "_key")) for e in uses]
    if len({n for n, _e in keys}) != len(keys) or any(n == GROUP_FIELD for n, _e in keys):
        return None
    inner = src.qualifiers
    components: dict[tuple, str] = {}

    def rewrite(expr: A.Expr) -> A.Expr | None:
        if g not in A.free_vars(expr):
            return expr
        if isinstance(expr, A.Proj) and expr.expr == A.Var(g):
            return expr if any(n == expr.attr for n, _e in keys) else None
        found = _aggregate_component(expr, g, keys, inner)
        if found is not None:
            name = components.setdefault(found, f"a{len(components)}")
            ref = A.Proj(A.Proj(A.Var(g), GROUP_FIELD), name)
            if isinstance(expr, A.Comprehension) and expr.monoid.name == "sum":
                return A.If(A.BinOp("=", ref, A.Null()), A.Const(0), ref)
            return ref
        if isinstance(expr, (A.Comprehension, A.Lambda)) or not expr.children():
            return None
        parts = [rewrite(c) for c in expr.children()]
        if any(p is None for p in parts):
            return None
        return expr.replace_children(parts)

    rewritten = [rewrite(e) for e in uses]
    if any(e is None for e in rewritten):
        return None
    try:
        child = _plan_qualifiers(inner, source_names)
    except PlanningError:
        return None
    monoid = get_monoid("aggs", tuple(
        (name, kind) for (kind, _e), name in components.items()))
    head = A.ListLit(tuple(e for _kind, e in components))
    plan: AlgNode = NestOp(child, tuple(keys), monoid, head, g)
    for pred in rewritten[1:]:
        plan = SelectOp(plan, pred)
    return ReduceOp(plan, comp.monoid, rewritten[0])


def _aggregate_component(agg: A.Expr, g: str, keys,
                         inner: tuple) -> tuple[str, A.Expr] | None:
    """``(kind, input)`` of a correlated aggregate over ``inner`` grouped by
    ``keys`` (see :func:`unnest_grouping`), or None when it is not one."""
    if isinstance(agg, A.Comprehension) and agg.monoid.name in _PRIMITIVE:
        comp, kind = agg, agg.monoid.name
        head = A.Const(1) if kind == "count" else agg.head
    elif isinstance(agg, A.Proj) and isinstance(agg.expr, A.Comprehension) \
            and agg.expr.monoid.name == "aggs" \
            and isinstance(agg.expr.head, A.ListLit) \
            and len(agg.expr.head.items) == 1:
        comp, head = agg.expr, agg.expr.head.items[0]
        ((name, kind),) = agg_components(comp.monoid.params)
        if name != agg.attr:
            return None
    else:
        return None
    quals = comp.qualifiers
    if g in A.free_vars(head) or quals[:len(inner)] != inner \
            or not all(isinstance(q, A.Filter) for q in quals[len(inner):]):
        return None
    wanted = {A.Proj(A.Var(g), n): e for n, e in keys}
    extra = []
    for q in quals[len(inner):]:
        p = q.pred
        if g not in A.free_vars(p):
            extra.append(p)
            continue
        if not (isinstance(p, A.BinOp) and p.op == "="):
            return None
        key, expr = (p.right, p.left) if p.right in wanted else (p.left, p.right)
        if wanted.pop(key, None) != expr:
            return None
    if wanted:
        return None  # not restricted to one group
    if extra:
        head = A.If(A.make_conjunction(extra), head, A.Null())
    return kind, head


def _extend_with_generator(
    plan: AlgNode | None,
    gen: A.Generator,
    bound: set[str],
    source_names: set[str] | frozenset[str],
) -> AlgNode:
    src = gen.source
    free = A.free_vars(src)

    if isinstance(src, A.Var) and src.name in source_names:
        scan: AlgNode = ScanOp(src.name, gen.var)
        if plan is None:
            return scan
        return JoinOp(plan, scan, A.Const(True))

    if free & bound:
        # Dependent generator: a path over already-bound variables.
        if plan is None:
            raise PlanningError(
                f"generator {gen.var!r} depends on unbound variables {free & bound}"
            )
        return UnnestOp(plan, src, gen.var)

    unknown = free - set(source_names)
    if isinstance(src, A.Var) and src.name not in source_names:
        raise PlanningError(f"unknown source {src.name!r}")
    if unknown:
        raise PlanningError(f"generator over expression with unbound variables {unknown}")

    scan = ExprScanOp(src, gen.var)
    if plan is None:
        return scan
    return JoinOp(plan, scan, A.Const(True))


def referenced_sources(expr: A.Expr, source_names: set[str] | frozenset[str]) -> set[str]:
    """All catalog sources mentioned anywhere in ``expr`` (incl. nested)."""
    out: set[str] = set()
    for node in A.walk(expr):
        if isinstance(node, A.Var) and node.name in source_names:
            out.add(node.name)
    return out
