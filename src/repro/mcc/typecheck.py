"""Type checker for the monoid comprehension calculus.

Queries are checked against an environment mapping free variables (data
source names registered in the catalog) to their collection types. The
checker validates user queries before they reach the engine (paper
Section 3.1: descriptions are "required to validate user queries").

Raw sources with learned or partial schemas may carry :class:`AnyType`
components; the checker degrades gracefully to gradual typing there.
"""

from __future__ import annotations

from ..errors import TypeCheckError
from . import ast as A
from . import types as T
from .monoids import agg_components

_NUMERIC_OPS = ("+", "-", "*", "/", "%")
_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: result type of each builtin function, given argument types
_BUILTIN_RESULT = {
    "len": T.INT, "abs": None, "lower": T.STRING, "upper": T.STRING,
    "substr": T.STRING, "round": T.FLOAT, "float": T.FLOAT, "int": T.INT,
    "str": T.STRING, "startswith": T.BOOL, "endswith": T.BOOL,
    "contains": T.BOOL, "sqrt": T.FLOAT, "exp": T.FLOAT, "log": T.FLOAT,
}


class TypeChecker:
    """Checks an expression bottom-up, threading a variable environment."""

    def __init__(self, env: dict[str, T.Type] | None = None):
        self.global_env = dict(env or {})

    def check(self, expr: A.Expr) -> T.Type:
        """Return the type of ``expr`` or raise :class:`TypeCheckError`."""
        return self._check(expr, dict(self.global_env))

    # ------------------------------------------------------------------

    def _check(self, expr: A.Expr, env: dict[str, T.Type]) -> T.Type:
        if isinstance(expr, A.Null):
            return T.NULL
        if isinstance(expr, A.Const):
            return T.type_of_python_value(expr.value)
        if isinstance(expr, A.Var):
            if expr.name not in env:
                raise TypeCheckError(f"unbound variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, A.Proj):
            base = self._check(expr.expr, env)
            if isinstance(base, T.AnyType):
                return T.ANY
            if isinstance(base, T.RecordType):
                ftype = base.field_type(expr.attr)
                if ftype is None:
                    raise TypeCheckError(
                        f"record has no field {expr.attr!r}; "
                        f"available: {', '.join(base.field_names())}"
                    )
                return ftype
            raise TypeCheckError(f"cannot project {expr.attr!r} from {base}")
        if isinstance(expr, A.RecordCons):
            fields = tuple((name, self._check(e, env)) for name, e in expr.fields)
            names = [n for n, _t in fields]
            if len(set(names)) != len(names):
                raise TypeCheckError(f"duplicate record field in {names}")
            return T.RecordType(fields)
        if isinstance(expr, A.If):
            ct = self._check(expr.cond, env)
            if not isinstance(ct, (T.AnyType,)) and ct != T.BOOL:
                raise TypeCheckError(f"if-condition must be bool, got {ct}")
            tt = self._check(expr.then, env)
            et = self._check(expr.els, env)
            u = T.unify(tt, et)
            if u is None:
                raise TypeCheckError(f"if-branches have incompatible types {tt} / {et}")
            return u
        if isinstance(expr, A.BinOp):
            return self._check_binop(expr, env)
        if isinstance(expr, A.UnOp):
            it = self._check(expr.expr, env)
            if expr.op == "not":
                if not isinstance(it, T.AnyType) and it != T.BOOL:
                    raise TypeCheckError(f"'not' needs bool, got {it}")
                return T.BOOL
            if not isinstance(it, T.AnyType) and not it.is_numeric():
                raise TypeCheckError(f"unary '-' needs a number, got {it}")
            return it
        if isinstance(expr, A.Lambda):
            inner = dict(env)
            inner[expr.param] = T.ANY
            result = self._check(expr.body, inner)
            return T.FunctionType(T.ANY, result)
        if isinstance(expr, A.Apply):
            ft = self._check(expr.func, env)
            self._check(expr.arg, env)
            if isinstance(ft, T.FunctionType):
                return ft.result
            if isinstance(ft, T.AnyType):
                return T.ANY
            raise TypeCheckError(f"cannot apply non-function of type {ft}")
        if isinstance(expr, A.Call):
            for arg in expr.args:
                self._check(arg, env)
            if expr.name not in _BUILTIN_RESULT:
                raise TypeCheckError(f"unknown builtin {expr.name!r}")
            result = _BUILTIN_RESULT[expr.name]
            if result is None:  # polymorphic (abs): same as argument
                return self._check(expr.args[0], env) if expr.args else T.ANY
            return result
        if isinstance(expr, A.Index):
            base = self._check(expr.expr, env)
            for ix in expr.indices:
                self._check(ix, env)
            if isinstance(base, T.ArrayType):
                if len(expr.indices) > base.rank:
                    raise TypeCheckError(
                        f"array of rank {base.rank} indexed with {len(expr.indices)} subscripts"
                    )
                if len(expr.indices) == base.rank:
                    return base.elem
                remaining = base.dims[len(expr.indices):]
                return T.ArrayType(remaining, base.elem)
            if isinstance(base, T.CollectionType):
                return base.elem
            if isinstance(base, T.AnyType):
                return T.ANY
            raise TypeCheckError(f"cannot index into {base}")
        if isinstance(expr, A.ListLit):
            # Heterogeneous literals (e.g. the (key, value) pairs fed to the
            # ordering monoid) degrade to list(any) instead of failing.
            elem: T.Type = T.ANY
            for item in expr.items:
                it = self._check(item, env)
                u = T.unify(elem, it)
                elem = u if u is not None else T.ANY
                if u is None:
                    return T.list_of(T.ANY)
            return T.list_of(elem)
        if isinstance(expr, A.Zero):
            if expr.monoid.collection:
                return T.CollectionType(expr.monoid.kind or "bag", T.ANY)
            return T.ANY
        if isinstance(expr, A.Singleton):
            et = self._check(expr.expr, env)
            return expr.monoid.result_type(et)
        if isinstance(expr, A.Merge):
            lt = self._check(expr.left, env)
            rt = self._check(expr.right, env)
            u = T.unify(lt, rt)
            if u is None:
                raise TypeCheckError(f"cannot merge {lt} with {rt}")
            return u
        if isinstance(expr, A.Comprehension):
            return self._check_comprehension(expr, env)
        raise TypeCheckError(f"cannot type {type(expr).__name__}")

    def _check_binop(self, expr: A.BinOp, env: dict[str, T.Type]) -> T.Type:
        lt = self._check(expr.left, env)
        rt = self._check(expr.right, env)
        op = expr.op
        if op in ("and", "or"):
            for side, t in (("left", lt), ("right", rt)):
                if not isinstance(t, T.AnyType) and t != T.BOOL:
                    raise TypeCheckError(f"{op!r} {side} operand must be bool, got {t}")
            return T.BOOL
        if op in _CMP_OPS:
            if T.unify(lt, rt) is None:
                raise TypeCheckError(f"cannot compare {lt} with {rt}")
            return T.BOOL
        if op == "in":
            if isinstance(rt, (T.CollectionType, T.ArrayType, T.AnyType)):
                return T.BOOL
            raise TypeCheckError(f"'in' needs a collection on the right, got {rt}")
        if op == "like":
            return T.BOOL
        if op in _NUMERIC_OPS:
            if op == "+" and lt == T.STRING and rt == T.STRING:
                return T.STRING
            for t in (lt, rt):
                if not isinstance(t, T.AnyType) and not t.is_numeric():
                    raise TypeCheckError(f"operator {op!r} needs numbers, got {lt} and {rt}")
            if T.FLOAT in (lt, rt) or op == "/":
                return T.FLOAT
            if isinstance(lt, T.AnyType) or isinstance(rt, T.AnyType):
                return T.ANY
            return T.INT
        raise TypeCheckError(f"unknown operator {op!r}")

    def _check_comprehension(self, comp: A.Comprehension, env: dict[str, T.Type]) -> T.Type:
        inner = dict(env)
        for q in comp.qualifiers:
            if isinstance(q, A.Generator):
                src = self._check(q.source, inner)
                if isinstance(src, T.CollectionType):
                    inner[q.var] = src.elem
                elif isinstance(src, T.ArrayType):
                    # Iterating an array binds (dim..., value) records.
                    fields = tuple((d.name, d.type) for d in src.dims)
                    if isinstance(src.elem, T.RecordType):
                        fields = fields + src.elem.fields
                    else:
                        fields = fields + (("value", src.elem),)
                    inner[q.var] = T.RecordType(fields)
                elif isinstance(src, T.AnyType):
                    inner[q.var] = T.ANY
                else:
                    raise TypeCheckError(
                        f"generator {q.var!r} must range over a collection, got {src}"
                    )
            elif isinstance(q, A.Filter):
                pt = self._check(q.pred, inner)
                if not isinstance(pt, T.AnyType) and pt != T.BOOL:
                    raise TypeCheckError(f"filter must be bool, got {pt}")
            elif isinstance(q, A.Bind):
                inner[q.var] = self._check(q.expr, inner)
        head_t = self._check(comp.head, inner)
        mono = comp.monoid
        if mono.name == "aggs" and isinstance(comp.head, A.ListLit):
            # the product monoid: each component input is checked like the
            # head of its own primitive monoid
            for (_n, kind), item in zip(agg_components(mono.params),
                                        comp.head.items):
                _check_fold_input(kind, self._check(item, inner))
        elif not mono.collection:
            _check_fold_input(mono.name, head_t)
        if mono.name in ("all", "any") and not isinstance(head_t, T.AnyType):
            if head_t != T.BOOL:
                raise TypeCheckError(f"monoid {mono.name!r} needs a bool head, got {head_t}")
        return mono.result_type(head_t)


def _check_fold_input(name: str, t: T.Type) -> None:
    """Numeric folds need numbers; ``max``/``min`` also order strings."""
    if name not in ("sum", "prod", "avg", "max", "min", "median") \
            or isinstance(t, T.AnyType) or t.is_numeric():
        return
    if name not in ("max", "min") or t != T.STRING:
        raise TypeCheckError(f"monoid {name!r} needs a numeric head, got {t}")


def typecheck(expr: A.Expr, env: dict[str, T.Type] | None = None) -> T.Type:
    """Convenience wrapper: check ``expr`` with ``env`` and return its type."""
    return TypeChecker(env).check(expr)
