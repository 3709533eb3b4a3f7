"""Expression codegen: lower ``Expression`` trees to Python closures.

``Expression.eval`` walks the AST once per row per operator — a
method call, a dict lookup and an isinstance dance per node.  This
module generates straight-line Python source for an expression (or a
whole projection / key tuple / predicate), compiles it once with
``compile()``, and hands back a plain closure the physical operators
can run over entire partitions.

Design notes, in the order they bit us:

* **Null semantics are copied verbatim from expr.py** — comparisons
  with ``None`` are ``False``, arithmetic with ``None`` is ``None``,
  ``LIKE``/``IN`` over ``None`` are ``False`` — so a closure and
  ``Expression.eval`` agree bit for bit (the property tests enforce it).
* **Laziness is preserved.**  ``and``/``or`` short-circuit and
  ``CASE WHEN`` evaluates branches in order, so guarded expressions
  like ``CASE WHEN n > 0 THEN s / n END`` must not evaluate the guarded
  branch eagerly.  Unconditionally-evaluated subexpressions are hoisted
  into common-subexpression locals; conditional positions are emitted
  as nested Python short-circuit expressions (helper calls where a bare
  inline form would evaluate an operand twice).
* **Constant folding** happens at emit time: any known, column-free
  subtree that evaluates cleanly against the empty row becomes a
  literal.  Folding failures (e.g. ``1/0``) fall through so the error
  still surfaces at run time, exactly as interpreted.
* **Codegen falls back.**  Any codegen failure at all returns a
  closure over the interpreted ``eval`` — compilation is an
  optimization, never a semantics change.

Closures are cached by a structural fingerprint (``repr`` is *not*
structural: a column named ``"(a + b)"`` must not unify with the
arithmetic node it shadows), so the ~2n neighbour replays of one query
compile exactly once.  Every node the parser plans has one; a node
class the fingerprints do not know raises ``TypeError``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import AnalysisError
from repro.sql.expr import (
    Alias,
    BinaryOp,
    CaseWhen,
    Column,
    Expression,
    FuncCall,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    Row,
    UnaryOp,
)

__all__ = [
    "CompiledExpression",
    "compile_expression",
    "compile_key",
    "compile_predicate",
    "compile_projection",
    "compiled",
    "expr_fingerprint",
    "plan_fingerprint",
]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def expr_fingerprint(expr: Expression) -> str:
    """A structural identity for ``expr``, usable as a cache/CSE key.

    Two expressions with equal fingerprints evaluate identically on
    every row.

    Raises:
        TypeError: for an expression class this module does not know.
    """
    if isinstance(expr, Column):
        return f"(col {expr.name!r})"
    if isinstance(expr, Literal):
        return f"(lit {type(expr.value).__name__} {expr.value!r})"
    if isinstance(expr, Alias):
        return f"(as {expr.name!r} {expr_fingerprint(expr.child)})"
    if isinstance(expr, BinaryOp):
        return (
            f"(bin {expr.op} {expr_fingerprint(expr.left)} "
            f"{expr_fingerprint(expr.right)})"
        )
    if isinstance(expr, UnaryOp):
        return f"(un {expr.op} {expr_fingerprint(expr.operand)})"
    if isinstance(expr, LikeOp):
        return (
            f"(like {expr.pattern!r} {expr.negated} "
            f"{expr_fingerprint(expr.operand)})"
        )
    if isinstance(expr, InOp):
        return (
            f"(in {expr.values!r} {expr.negated} "
            f"{expr_fingerprint(expr.operand)})"
        )
    if isinstance(expr, IsNullOp):
        return f"(isnull {expr.negated} {expr_fingerprint(expr.operand)})"
    if isinstance(expr, CaseWhen):
        branches = " ".join(
            f"{expr_fingerprint(c)}:{expr_fingerprint(v)}"
            for c, v in expr.branches
        )
        default = (
            expr_fingerprint(expr.default) if expr.default is not None else ""
        )
        return f"(case {branches} else {default})"
    if isinstance(expr, FuncCall):
        args = " ".join(expr_fingerprint(a) for a in expr.args)
        return f"(func {expr.name} {args})"
    if isinstance(expr, CompiledExpression):
        return expr_fingerprint(expr.expr)
    raise TypeError(
        f"cannot fingerprint expression {type(expr).__name__}"
    )


def plan_fingerprint(plan) -> str:
    """Canonical fingerprint of a logical plan: the SQL bridge's compile
    cache and release replay key on it.

    Raises:
        TypeError: for a plan node class this module does not know.
    """
    from repro.sql.logical import Aggregate, Filter, Join, Project, Scan

    if isinstance(plan, Scan):
        return f"(scan {plan.table_name!r})"
    if isinstance(plan, Filter):
        return (
            f"(filter {expr_fingerprint(plan.condition)} "
            f"{plan_fingerprint(plan.child)})"
        )
    if isinstance(plan, Project):
        exprs = " ".join(expr_fingerprint(e) for e in plan.exprs)
        return f"(project [{exprs}] {plan_fingerprint(plan.child)})"
    if isinstance(plan, Join):
        keys = " ".join(
            f"{expr_fingerprint(l)}={expr_fingerprint(r)}"
            for l, r in plan.keys
        )
        residual = (
            expr_fingerprint(plan.residual)
            if plan.residual is not None else ""
        )
        return (
            f"(join {plan.how} [{keys}] res[{residual}] "
            f"{plan_fingerprint(plan.left)} {plan_fingerprint(plan.right)})"
        )
    if isinstance(plan, Aggregate):
        aggs = " ".join(
            f"{s.func}:"
            f"{expr_fingerprint(s.expr) if s.expr is not None else '*'}:"
            f"{s.alias!r}"
            for s in plan.aggregates
        )
        return f"(agg [{aggs}] {plan_fingerprint(plan.child)})"
    raise TypeError(f"cannot fingerprint plan node {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Runtime helpers (referenced from generated code)
# ---------------------------------------------------------------------------
#
# The inline non-lazy forms evaluate their operands exactly once because
# the operands are CSE locals; in lazy (conditional) positions the
# operand text is an arbitrary expression, so these helpers keep the
# single-evaluation guarantee there.


def _column_error(exc: KeyError, row: Row) -> None:
    name = exc.args[0] if exc.args else "?"
    raise AnalysisError(
        f"column {name!r} not in row with columns {sorted(row)}"
    ) from None


def _eq(a, b):
    return False if a is None or b is None else a == b


def _ne(a, b):
    return False if a is None or b is None else a != b


def _lt(a, b):
    return False if a is None or b is None else a < b


def _le(a, b):
    return False if a is None or b is None else a <= b


def _gt(a, b):
    return False if a is None or b is None else a > b


def _ge(a, b):
    return False if a is None or b is None else a >= b


def _add(a, b):
    return None if a is None or b is None else a + b


def _sub(a, b):
    return None if a is None or b is None else a - b


def _mul(a, b):
    return None if a is None or b is None else a * b


def _div(a, b):
    return None if a is None or b is None else a / b


def _neg(a):
    return None if a is None else -a


def _like(value, regex, negated):
    if value is None:
        return False
    return (regex.match(str(value)) is not None) != negated


def _isin(value, members, negated):
    if value is None:
        return False
    return (value in members) != negated


_HELPERS = {
    "_colerr": _column_error,
    "_eq": _eq, "_ne": _ne, "_lt": _lt, "_le": _le, "_gt": _gt, "_ge": _ge,
    "_add": _add, "_sub": _sub, "_mul": _mul, "_div": _div, "_neg": _neg,
    "_like": _like, "_isin": _isin,
}

_CMP_HELPER = {"=": "_eq", "<>": "_ne", "<": "_lt", "<=": "_le",
               ">": "_gt", ">=": "_ge"}
_CMP_PY = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_HELPER = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div"}

#: literal types whose repr() round-trips exactly through compile().
_INLINE_LITERALS = (bool, int, float, str, bytes)

#: expression types the generator understands (constant folding is
#: restricted to these — they are pure by construction).
_KNOWN_TYPES = (
    Column, Literal, Alias, BinaryOp, UnaryOp, LikeOp, InOp, IsNullOp,
    CaseWhen, FuncCall,
)


class _Uncompilable(Exception):
    """Internal: abort codegen and fall back to interpreted eval."""


# ---------------------------------------------------------------------------
# Code generator
# ---------------------------------------------------------------------------


class _CodeGen:
    """Accumulates CSE locals, env constants and generated statements."""

    def __init__(self) -> None:
        self.stmts: List[str] = []
        self.locals: Dict[str, str] = {}  # fingerprint -> local name
        self.env: Dict[str, Any] = {}     # const name -> value
        self._counter = 0
        self.uses_column = False

    def const(self, value: Any) -> str:
        name = f"_c{len(self.env)}"
        self.env[name] = value
        return name

    # -- emission ------------------------------------------------------

    def emit(self, expr: Expression, lazy: bool) -> str:
        """Return a Python expression text computing ``expr``.

        Non-lazy positions are hoisted to (deduplicated) locals; lazy
        positions return inline text evaluated only when reached.
        """
        if isinstance(expr, Alias):
            return self.emit(expr.child, lazy)
        folded = self._try_fold(expr)
        if folded is not None:
            return folded
        if isinstance(expr, Literal):
            return self._literal(expr.value)
        fp = expr_fingerprint(expr)
        known = self.locals.get(fp)
        if known is not None:
            return known
        text = self._gen(expr, lazy)
        if lazy:
            return text
        name = f"_v{self._counter}"
        self._counter += 1
        self.stmts.append(f"{name} = {text}")
        self.locals[fp] = name
        return name

    def _try_fold(self, expr: Expression) -> Optional[str]:
        if isinstance(expr, (Literal, Column)):
            return None
        if not isinstance(expr, _KNOWN_TYPES):
            return None
        try:
            if expr.references():
                return None
            value = expr.eval({})
        except Exception:
            return None
        return self._literal(value)

    def _literal(self, value: Any) -> str:
        if value is None or isinstance(value, _INLINE_LITERALS):
            return repr(value)
        return self.const(value)

    @staticmethod
    def _nullness(text: str) -> Optional[bool]:
        """Compile-time nullability of an emitted operand text.

        True = definitely None, False = definitely non-None (an inline
        literal), None = unknown (a local, const, or nested form).
        """
        if text == "None":
            return True
        if (
            text[0] in "'\"0123456789-"
            or text in ("True", "False")
            or text.startswith(("b'", 'b"'))
        ):
            return False
        return None

    def _null_guard(
        self, operands: Sequence[str], result_if_null: str, body: str
    ) -> str:
        """Wrap ``body`` in None checks for the operands that need them."""
        kinds = [self._nullness(t) for t in operands]
        if any(kind is True for kind in kinds):
            return result_if_null
        checks = [t for t, kind in zip(operands, kinds) if kind is None]
        if not checks:
            return body
        cond = " or ".join(f"{t} is None" for t in checks)
        return f"({result_if_null} if {cond} else {body})"

    def _gen(self, expr: Expression, lazy: bool) -> str:
        if isinstance(expr, Column):
            self.uses_column = True
            return f"row[{expr.name!r}]"
        if isinstance(expr, BinaryOp):
            return self._gen_binary(expr, lazy)
        if isinstance(expr, UnaryOp):
            operand = self.emit(expr.operand, lazy)
            if expr.op == "not":
                return f"(not bool({operand}))"
            if lazy and self._nullness(operand) is None:
                return f"_neg({operand})"
            return self._null_guard([operand], "None", f"(-{operand})")
        if isinstance(expr, LikeOp):
            operand = self.emit(expr.operand, lazy)
            regex = self.const(expr._compiled)
            if lazy and self._nullness(operand) is None:
                return f"_like({operand}, {regex}, {expr.negated})"
            return self._null_guard(
                [operand],
                "False",
                f"(({regex}.match(str({operand})) is not None) "
                f"!= {expr.negated})",
            )
        if isinstance(expr, InOp):
            operand = self.emit(expr.operand, lazy)
            members = (
                expr._value_set if expr._value_set is not None
                else expr.values
            )
            name = self.const(members)
            if lazy and self._nullness(operand) is None:
                return f"_isin({operand}, {name}, {expr.negated})"
            return self._null_guard(
                [operand],
                "False",
                f"(({operand} in {name}) != {expr.negated})",
            )
        if isinstance(expr, IsNullOp):
            operand = self.emit(expr.operand, lazy)
            kind = self._nullness(operand)
            if kind is not None:
                return repr(kind != expr.negated)
            return f"(({operand} is None) != {expr.negated})"
        if isinstance(expr, CaseWhen):
            return self._gen_case(expr, lazy)
        if isinstance(expr, FuncCall):
            impl = self.const(expr._impl)
            args = ", ".join(self.emit(a, lazy) for a in expr.args)
            return f"{impl}({args})"
        if isinstance(expr, CompiledExpression):
            return self.emit(expr.expr, lazy)
        raise _Uncompilable(f"unknown expression {type(expr).__name__}")

    def _gen_binary(self, expr: BinaryOp, lazy: bool) -> str:
        op = expr.op
        if op in ("and", "or"):
            left = self.emit(expr.left, lazy)
            right = self.emit(expr.right, True)  # RHS short-circuits
            return f"(bool({left}) {op} bool({right}))"
        left = self.emit(expr.left, lazy)
        right = self.emit(expr.right, lazy)
        unknown = (
            self._nullness(left) is None or self._nullness(right) is None
        )
        if op in _CMP_HELPER:
            if lazy and unknown:
                return f"{_CMP_HELPER[op]}({left}, {right})"
            return self._null_guard(
                [left, right], "False", f"({left} {_CMP_PY[op]} {right})"
            )
        if op in _ARITH_HELPER:
            if lazy and unknown:
                return f"{_ARITH_HELPER[op]}({left}, {right})"
            return self._null_guard(
                [left, right], "None", f"({left} {op} {right})"
            )
        raise _Uncompilable(f"unknown binary operator {op!r}")

    def _gen_case(self, expr: CaseWhen, lazy: bool) -> str:
        # The first WHEN condition is evaluated unconditionally; all
        # values and later conditions are reached only on demand.
        tail = (
            self.emit(expr.default, True)
            if expr.default is not None else "None"
        )
        for i, (condition, value) in reversed(
            list(enumerate(expr.branches))
        ):
            cond = self.emit(condition, lazy or i > 0)
            val = self.emit(value, True)
            tail = f"({val} if {cond} else {tail})"
        return tail

    # -- assembly ------------------------------------------------------

    def build(self, return_stmt: str, tag: str) -> Callable[[Row], Any]:
        params = ["row"]
        params.extend(f"{name}={name}" for name in self.env)
        body = list(self.stmts) + [return_stmt]
        if self.uses_column:
            inner = "".join(f"        {line}\n" for line in body)
            text = (
                f"def _compiled({', '.join(params)}):\n"
                f"    try:\n{inner}"
                f"    except KeyError as _e:\n"
                f"        _colerr(_e, row)\n"
            )
        else:
            inner = "".join(f"    {line}\n" for line in body)
            text = f"def _compiled({', '.join(params)}):\n{inner}"
        namespace: Dict[str, Any] = dict(_HELPERS)
        namespace.update(self.env)
        exec(compile(text, f"<sqlcompiler:{tag}>", "exec"), namespace)
        fn = namespace["_compiled"]
        fn._source = text  # introspection / debugging
        return fn


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

_CACHE_LIMIT = 512
_cache_lock = threading.Lock()
_closure_cache: "OrderedDict[str, Callable]" = OrderedDict()


def _cached(key: str, build: Callable[[], Callable]) -> Callable:
    with _cache_lock:
        fn = _closure_cache.get(key)
        if fn is not None:
            _closure_cache.move_to_end(key)
            return fn
    fn = build()
    with _cache_lock:
        _closure_cache[key] = fn
        while len(_closure_cache) > _CACHE_LIMIT:
            _closure_cache.popitem(last=False)
    return fn


def compile_expression(expr: Expression) -> Callable[[Row], Any]:
    """A closure computing ``expr.eval(row)`` (interpreted on failure)."""
    if isinstance(expr, CompiledExpression):
        return expr._fn

    def build() -> Callable[[Row], Any]:
        try:
            gen = _CodeGen()
            final = gen.emit(expr, lazy=False)
            return gen.build(f"return {final}", "expr")
        except Exception:
            return lambda row: expr.eval(row)

    return _cached(f"expr|{expr_fingerprint(expr)}", build)


def compile_predicate(expr: Expression) -> Callable[[Row], bool]:
    """A closure computing ``bool(expr.eval(row))``."""

    def build() -> Callable[[Row], bool]:
        try:
            gen = _CodeGen()
            final = gen.emit(expr, lazy=False)
            return gen.build(
                f"return (True if {final} else False)", "pred"
            )
        except Exception:
            return lambda row: bool(expr.eval(row))

    return _cached(f"pred|{expr_fingerprint(expr)}", build)


def compile_projection(
    exprs: Sequence[Expression],
) -> Callable[[Row], Row]:
    """One closure computing a whole projected row, with CSE across
    output expressions."""
    exprs = list(exprs)
    pairs: List[Tuple[str, Expression]] = [
        (e.output_name(), e) for e in exprs
    ]

    def build() -> Callable[[Row], Row]:
        try:
            gen = _CodeGen()
            items = ", ".join(
                f"{name!r}: {gen.emit(e, lazy=False)}" for name, e in pairs
            )
            return gen.build(f"return {{{items}}}", "project")
        except Exception:
            return lambda row: {name: e.eval(row) for name, e in pairs}

    key = "project|" + ";".join(
        f"{name!r}={expr_fingerprint(e)}" for name, e in pairs
    )
    return _cached(key, build)


def compile_key(
    exprs: Sequence[Expression],
) -> Callable[[Row], Tuple[Any, ...]]:
    """One closure computing a key tuple (join/group/sort keys)."""
    exprs = list(exprs)

    def build() -> Callable[[Row], Tuple[Any, ...]]:
        try:
            gen = _CodeGen()
            parts = "".join(
                f"{gen.emit(e, lazy=False)}, " for e in exprs
            )
            return gen.build(f"return ({parts})", "key")
        except Exception:
            return lambda row: tuple(e.eval(row) for e in exprs)

    key = "key|" + ";".join(expr_fingerprint(e) for e in exprs)
    return _cached(key, build)


class CompiledExpression(Expression):
    """An :class:`Expression` whose ``eval`` runs the compiled closure.

    Drop-in wherever an expression is evaluated per row (e.g. inside
    :class:`~repro.sql.functions.AggregateSpec`), while remaining a
    structural citizen — references/children/output_name delegate to
    the wrapped node.
    """

    def __init__(self, expr: Expression):
        self.expr = expr
        self._fn = compile_expression(expr)

    def eval(self, row: Row) -> Any:
        return self._fn(row)

    def references(self):
        return self.expr.references()

    def children(self) -> Sequence[Expression]:
        return self.expr.children()

    def output_name(self) -> str:
        return self.expr.output_name()

    def __repr__(self) -> str:
        return repr(self.expr)


def compiled(expr: Optional[Expression]) -> Optional[Expression]:
    """Wrap ``expr`` for compiled evaluation (None passes through)."""
    if expr is None or isinstance(expr, CompiledExpression):
        return expr
    return CompiledExpression(expr)
