"""Nested relational algebra (paper Section 3.2/4; Fegaras & Maier §6).

The normalized calculus is translated to this algebra, "which is much closer
to an execution plan, and over which an additional number of rewritings can
be applied". Operators:

- :class:`ScanOp` — bind each element of a named catalog source.
- :class:`ExprScanOp` — bind each element of an arbitrary collection
  expression (list literals, cached intermediates).
- :class:`SelectOp` — filter by a predicate.
- :class:`JoinOp` — theta join of two subplans (predicate may be ``true``;
  the physical planner extracts equi-join keys from enclosing selections).
- :class:`UnnestOp` — bind each element of a collection-valued path rooted
  at an already-bound variable (JSON arrays, nested collections).
- :class:`OuterUnnestOp` / :class:`OuterJoinOp` — null-preserving variants
  used when nested subqueries must not drop outer tuples.
- :class:`NestOp` — group by key expressions, folding each group through a
  monoid (the algebra's grouping form of Fegaras & Maier).
- :class:`ReduceOp` — the generalized projection: folds qualifying heads
  through the output monoid; "a generalization of the straightforward
  relational projection operator" (paper Section 4).

Every operator knows which variables it binds; expressions in predicates and
heads are plain calculus expressions over those variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast as A
from .monoids import Monoid


class AlgNode:
    """Base class for algebra operators."""

    def children(self) -> tuple["AlgNode", ...]:
        return ()

    def bound_vars(self) -> tuple[str, ...]:
        """Variables visible to ancestors of this node, in binding order."""
        out: tuple[str, ...] = ()
        for child in self.children():
            out += child.bound_vars()
        return out


@dataclass(frozen=True)
class ScanOp(AlgNode):
    """Scan catalog source ``source``, binding each element to ``var``."""

    source: str
    var: str

    def bound_vars(self):
        return (self.var,)


@dataclass(frozen=True)
class ExprScanOp(AlgNode):
    """Scan the collection produced by evaluating ``expr`` (no free plan vars)."""

    expr: A.Expr
    var: str

    def bound_vars(self):
        return (self.var,)


@dataclass(frozen=True)
class SelectOp(AlgNode):
    child: AlgNode
    pred: A.Expr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class JoinOp(AlgNode):
    left: AlgNode
    right: AlgNode
    pred: A.Expr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class OuterJoinOp(AlgNode):
    """Left outer join: unmatched left tuples bind right vars to null."""

    left: AlgNode
    right: AlgNode
    pred: A.Expr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class UnnestOp(AlgNode):
    """Bind ``var`` to each element of collection-valued ``path``."""

    child: AlgNode
    path: A.Expr
    var: str

    def children(self):
        return (self.child,)

    def bound_vars(self):
        return self.child.bound_vars() + (self.var,)


@dataclass(frozen=True)
class OuterUnnestOp(AlgNode):
    child: AlgNode
    path: A.Expr
    var: str

    def children(self):
        return (self.child,)

    def bound_vars(self):
        return self.child.bound_vars() + (self.var,)


#: field of a Nest group record that holds the group's folded value
GROUP_FIELD = "group"


@dataclass(frozen=True)
class NestOp(AlgNode):
    """Group by ``keys``; fold ``head`` of each group through ``monoid``.

    Binds ``group_var`` to a record ⟨key..., group⟩ for ancestors, the
    folded value under :data:`GROUP_FIELD`.
    """

    child: AlgNode
    keys: tuple[tuple[str, A.Expr], ...]
    monoid: Monoid
    head: A.Expr
    group_var: str

    def children(self):
        return (self.child,)

    def bound_vars(self):
        return (self.group_var,)


@dataclass(frozen=True)
class ReduceOp(AlgNode):
    """Fold qualifying ``head`` values through ``monoid`` (root of every plan)."""

    child: AlgNode
    monoid: Monoid
    head: A.Expr

    def children(self):
        return (self.child,)


def explain(node: AlgNode, indent: int = 0) -> str:
    """Render an algebra tree as an indented single string (for EXPLAIN)."""
    from .pretty import pretty

    pad = "  " * indent
    if isinstance(node, ScanOp):
        return f"{pad}Scan({node.source} as {node.var})"
    if isinstance(node, ExprScanOp):
        return f"{pad}ExprScan({pretty(node.expr)} as {node.var})"
    if isinstance(node, SelectOp):
        return f"{pad}Select[{pretty(node.pred)}]\n" + explain(node.child, indent + 1)
    if isinstance(node, (JoinOp, OuterJoinOp)):
        name = "OuterJoin" if isinstance(node, OuterJoinOp) else "Join"
        return (
            f"{pad}{name}[{pretty(node.pred)}]\n"
            + explain(node.left, indent + 1)
            + "\n"
            + explain(node.right, indent + 1)
        )
    if isinstance(node, (UnnestOp, OuterUnnestOp)):
        name = "OuterUnnest" if isinstance(node, OuterUnnestOp) else "Unnest"
        return (
            f"{pad}{name}[{pretty(node.path)} as {node.var}]\n"
            + explain(node.child, indent + 1)
        )
    if isinstance(node, NestOp):
        keys = ", ".join(f"{n}={pretty(e)}" for n, e in node.keys)
        return (
            f"{pad}Nest[{keys}; {node.monoid.describe()} "
            f"{pretty(node.head)} as {node.group_var}]\n"
            + explain(node.child, indent + 1)
        )
    if isinstance(node, ReduceOp):
        return (
            f"{pad}Reduce[{node.monoid.describe()} "
            f"{pretty(node.head)}]\n"
            + explain(node.child, indent + 1)
        )
    raise TypeError(f"cannot explain {type(node).__name__}")
