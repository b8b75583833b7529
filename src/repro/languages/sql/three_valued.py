"""SQL's three-valued predicate logic over the two-valued calculus.

A SQL comparison with a NULL operand is NULL, and WHERE/HAVING keep only
rows whose predicate is true. The calculus evaluates predicates in Python,
where ``None != x`` holds and ``not`` turns false into true. The SQL
translator therefore asks, for every predicate, "is it true?":

- ``a <> b`` is true only on non-NULL operands (:func:`guarded`);
- ``NOT p`` is pushed through AND/OR (De Morgan) onto the complementary
  comparison (:func:`negate`), so a NULL operand leaves it false too.

Comprehension-syntax ``!=`` and ``not`` keep their Python meaning.
"""

from __future__ import annotations

from ...mcc import ast as A
from . import ast as S

#: the comparison that holds exactly where ``op`` fails on non-NULL operands
_COMPLEMENT = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def not_null(e: A.Expr) -> A.Expr:
    return A.BinOp("!=", e, A.Null())


def guarded(pred: A.Expr, operands: tuple) -> A.Expr:
    """``pred`` and no operand is NULL. Against a NULL literal the
    comparison is IS [NOT] NULL, which is two-valued and stays as it is."""
    if A.Null() in operands:
        return pred
    return A.make_conjunction([pred] + [
        not_null(e) for e in operands if not isinstance(e, A.Const)])


def negate(expr, translate) -> A.Expr:
    """The calculus predicate "SQL ``NOT expr`` is true"; ``translate``
    turns a SQL expression into its "is true" predicate."""
    if isinstance(expr, S.SQLUnOp) and expr.op == "not":
        return translate(expr.expr)
    if isinstance(expr, S.SQLBinOp) and expr.op in ("and", "or"):
        return A.BinOp("or" if expr.op == "and" else "and",
                       negate(expr.left, translate), negate(expr.right, translate))
    if isinstance(expr, S.SQLBinOp) and expr.op in _COMPLEMENT:
        left, right = translate(expr.left), translate(expr.right)
        out = A.BinOp(_COMPLEMENT[expr.op], left, right)
        # the engines already make an ordering comparison false on NULL
        return guarded(out, (left, right)) if expr.op in ("=", "!=") else out
    if isinstance(expr, S.InList):
        return translate(S.InList(expr.expr, expr.items, not expr.negated))
    return A.UnOp("not", translate(expr))
