"""SQL → monoid comprehension translation (paper §3.2).

"Support for a variety of query languages can be provided through a
'syntactic sugar' translation layer, which maps queries written in the
original language to the internal notation." This module is that layer for
SQL. Shapes produced:

- plain SELECT → ``for { gens, filters } yield bag ⟨items⟩``
  (``set`` for DISTINCT);
- single top-level aggregate → the corresponding primitive monoid
  (COUNT(e) counts rows with a non-null e, exactly SQL's semantics);
- several aggregates, no GROUP BY → one comprehension over the ``aggs``
  product monoid, folding every aggregate in one pass;
- GROUP BY/HAVING → the nested-comprehension encoding: the outer
  comprehension ranges over the ``set`` of keys, each aggregate is a
  one-component ``aggs`` comprehension correlated to the key
  [Fegaras & Maier §2], which ``mcc.translate`` unnests into one grouped
  fold (``Nest``);
- ORDER BY → the ordering monoid, which keeps only the LIMIT best rows;
- ``<>`` and ``NOT`` follow SQL's three-valued logic (``three_valued``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ...errors import ParseError, TypeCheckError
from ...mcc import ast as A
from ...mcc.monoids import get_monoid, make_orderby
from ...mcc import types as T
from . import ast as S
from .parser import parse_sql
from .three_valued import guarded, negate, not_null

_STAR = S.ColumnRef(None, "*")


@dataclass
class _Scope:
    """Alias → (source name, element type) for column resolution."""

    tables: dict[str, tuple[str, T.Type]]

    def resolve(self, ref: S.ColumnRef) -> A.Expr:
        if ref.table is not None:
            if ref.table not in self.tables:
                raise ParseError(f"unknown table alias {ref.table!r}")
            return A.Proj(A.Var(ref.table), ref.name)
        owners = [alias for alias, (_src, etype) in self.tables.items()
                  if isinstance(etype, T.AnyType) or (
                      isinstance(etype, T.RecordType)
                      and etype.field_type(ref.name) is not None)]
        if not owners:
            raise TypeCheckError(f"column {ref.name!r} not found in any FROM table")
        if len(owners) > 1:
            raise TypeCheckError(
                f"column {ref.name!r} is ambiguous (in {', '.join(owners)})")
        return A.Proj(A.Var(owners[0]), ref.name)


def translate_sql(statement: str | S.SelectStmt, catalog) -> A.Expr:
    """Translate a SQL statement into a calculus expression.

    ``catalog`` provides source schemas for unqualified-column resolution.
    """
    stmt = parse_sql(statement) if isinstance(statement, str) else statement

    tables: dict[str, tuple[str, T.Type]] = {}
    gens: list[A.Qualifier] = []
    filters: list[A.Expr] = []

    def add_table(ref: S.TableRef) -> None:
        entry = catalog.get(ref.name)
        if ref.alias in tables:
            raise ParseError(f"duplicate table alias {ref.alias!r}")
        tables[ref.alias] = (ref.name, entry.description.element_type)
        gens.append(A.Generator(ref.alias, A.Var(ref.name)))

    add_table(stmt.table)
    scope = _Scope(tables)
    for join in stmt.joins:
        add_table(join.table)
        filters.append(_expr(join.condition, scope))
    if stmt.where is not None:
        filters.append(_expr(stmt.where, scope))

    qualifiers = tuple(gens) + tuple(A.Filter(f) for f in filters)

    if stmt.group_by:
        return _translate_group_by(stmt, scope, qualifiers)

    aggregates = [item for item in stmt.items
                  if isinstance(item.expr, S.Aggregate)]
    if aggregates:
        if len(aggregates) != len(stmt.items):
            raise ParseError("mixing aggregates and plain columns requires GROUP BY")
        if len(aggregates) == 1:
            return _aggregate_comprehension(aggregates[0].expr, scope, qualifiers)
        return _product([(item.alias or f"agg{i}", item.expr)
                         for i, item in enumerate(aggregates)], scope, qualifiers)

    head = _select_head(stmt, scope)
    if stmt.order_by:
        return _translate_order_by(stmt, qualifiers, head,
                                   lambda e: _expr(e, scope))
    monoid = get_monoid("set" if stmt.distinct else "bag")
    return A.Comprehension(monoid, head, qualifiers)


def _select_head(stmt: S.SelectStmt, scope: _Scope, translate=None) -> A.Expr:
    if [item.expr for item in stmt.items] == [_STAR]:
        if len(scope.tables) == 1:
            return A.Var(next(iter(scope.tables)))
        return A.RecordCons(tuple((alias, A.Var(alias)) for alias in scope.tables))
    translate = translate or (lambda e: _expr(e, scope))
    return A.RecordCons(tuple(
        (item.alias or _default_name(item.expr, i), translate(item.expr))
        for i, item in enumerate(stmt.items)))


def _default_name(expr, i: int) -> str:
    return expr.name if isinstance(expr, S.ColumnRef) else f"col{i}"


def _component(agg: S.Aggregate, scope: _Scope) -> tuple[str, A.Expr]:
    """``(kind, input)`` of one aggregate as an ``aggs`` component."""
    if agg.arg is None:
        if agg.func != "count":
            raise ParseError(f"{agg.func.upper()} requires an argument")
        return "count", A.Const(1)
    if agg.distinct and agg.func != "count":
        raise ParseError(f"{agg.func.upper()}(DISTINCT ...) is not supported")
    return ("count_distinct" if agg.distinct else agg.func), _expr(agg.arg, scope)


def _product(named: list, scope: _Scope, qualifiers: tuple) -> A.Comprehension:
    """Aggregates ``(field, agg)`` folded together over the ``aggs`` product
    monoid, whose components follow SQL's NULL rules."""
    comps = [(name, *_component(agg, scope)) for name, agg in named]
    monoid = get_monoid("aggs", tuple((name, kind) for name, kind, _e in comps))
    return A.Comprehension(monoid, A.ListLit(tuple(e for _n, _k, e in comps)),
                           qualifiers)


def _aggregate_comprehension(agg: S.Aggregate, scope: _Scope,
                             qualifiers: tuple) -> A.Comprehension:
    """One aggregate as a comprehension over its primitive monoid."""
    kind, arg = _component(agg, scope)
    if kind == "count_distinct":
        inner = A.Comprehension(get_monoid("set"), arg,
                                qualifiers + (A.Filter(not_null(arg)),))
        return A.Comprehension(get_monoid("count"), A.Const(1),
                               (A.Generator(A.fresh_var("d"), inner),))
    if kind == "count":
        if not isinstance(arg, A.Const):
            qualifiers = qualifiers + (A.Filter(not_null(arg)),)
        return A.Comprehension(get_monoid("count"), A.Const(1), qualifiers)
    return A.Comprehension(get_monoid(kind), arg, qualifiers)


def _translate_group_by(stmt: S.SelectStmt, scope: _Scope,
                        qualifiers: tuple) -> A.Expr:
    """``bag{head | g <- set{keys | Q}, having}``: each aggregate becomes a
    one-component ``aggs`` comprehension over ``Q`` correlated to ``g``'s
    keys, and key expressions outside them read ``g``."""
    if [item.expr for item in stmt.items] == [_STAR]:
        raise ParseError("SELECT * cannot be combined with GROUP BY")
    key_exprs = [_expr(k, scope) for k in stmt.group_by]
    key_names = [k.name if isinstance(k, S.ColumnRef) else f"k{i}"
                 for i, k in enumerate(stmt.group_by)]
    gvar = A.fresh_var("g")
    key_of = {e: A.Proj(A.Var(gvar), n) for e, n in zip(key_exprs, key_names)}
    group_quals = qualifiers + tuple(
        A.Filter(A.BinOp("=", e, key)) for e, key in key_of.items())

    def grouped(expr) -> A.Expr:
        return _read_keys(_expr(expr, scope, lambda agg: A.Proj(
            _product([("v", agg)], scope, group_quals), "v")), key_of, scope.tables)

    keys = A.Comprehension(get_monoid("set"), A.RecordCons(
        tuple(zip(key_names, key_exprs))), qualifiers)
    quals: tuple = (A.Generator(gvar, keys),)
    if stmt.having is not None:
        quals += (A.Filter(grouped(stmt.having)),)
    head = _select_head(stmt, scope, grouped)
    if stmt.order_by:
        return _translate_order_by(stmt, quals, head, grouped)
    return A.Comprehension(get_monoid("bag"), head, quals)


def _read_keys(expr: A.Expr, key_of: dict, aliases) -> A.Expr:
    """Replace grouping-key expressions by the group's key fields (never
    inside the aggregates, which range over the group's rows)."""
    if expr in key_of:
        return key_of[expr]
    if isinstance(expr, A.Var) and expr.name in aliases:
        raise ParseError("a column outside an aggregate must appear in GROUP BY")
    if isinstance(expr, A.Comprehension) or not expr.children():
        return expr
    return expr.replace_children(
        [_read_keys(c, key_of, aliases) for c in expr.children()])


def _translate_order_by(stmt: S.SelectStmt, qualifiers: tuple, head: A.Expr,
                        translate) -> A.Expr:
    if len(stmt.order_by) != 1:
        raise ParseError("only single-key ORDER BY is supported")
    item = stmt.order_by[0]
    monoid = make_orderby(descending=item.descending, limit=stmt.limit)
    pair = A.ListLit((translate(item.expr), head))
    return A.Comprehension(monoid, pair, qualifiers)


def _expr(expr, scope: _Scope, aggregate=None) -> A.Expr:
    """Translate a scalar SQL expression; ``aggregate`` translates the
    aggregates of a GROUP BY block."""
    sub = partial(_expr, scope=scope, aggregate=aggregate)
    if isinstance(expr, S.Literal):
        return A.Null() if expr.value is None else A.Const(expr.value)
    if isinstance(expr, S.ColumnRef):
        if expr.name == "*":
            raise ParseError("'*' is only valid as the whole select list")
        return scope.resolve(expr)
    if isinstance(expr, S.SQLBinOp):
        left, right = sub(expr.left), sub(expr.right)
        out = A.BinOp(expr.op, left, right)
        return guarded(out, (left, right)) if expr.op == "!=" else out
    if isinstance(expr, S.SQLUnOp):
        return negate(expr.expr, sub) if expr.op == "not" \
            else A.UnOp(expr.op, sub(expr.expr))
    if isinstance(expr, S.FuncCall):
        name = {"length": "len"}.get(expr.name, expr.name)
        return A.Call(name, tuple(map(sub, expr.args)))
    if isinstance(expr, S.InList):
        item = sub(expr.expr)
        found = A.BinOp("in", item, A.ListLit(tuple(map(sub, expr.items))))
        return guarded(A.UnOp("not", found), (item,)) if expr.negated else found
    if isinstance(expr, S.Aggregate) and aggregate is not None:
        return aggregate(expr)
    if isinstance(expr, S.Aggregate):
        raise ParseError("aggregate used outside the SELECT list / HAVING")
    raise ParseError(f"cannot translate SQL node {type(expr).__name__}")
