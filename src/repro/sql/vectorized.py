"""Vectorized expression compilation over column blocks.

A *block* is anything with ``len()`` and ``numpy_column(name)`` — a
:class:`~repro.engine.columnar.ColumnarPartition`, or the column blocks
the SQL bridge maps a record batch through.  :func:`block_mask` /
:func:`block_value` compile *any* expression and promise the row
answer.  Comparisons, ``and``/``or``/``not`` and arithmetic over
columns and literals become a ufunc tree; any other node (LIKE, IN,
IS NULL, CASE, function calls) runs its :mod:`~repro.sql.compiler`
closure row by row over just the columns it references.  The ufunc
tree is guarded: where evaluating whole columns eagerly could differ
from evaluating one row lazily (a zero divisor an ``and`` would have
short-circuited past, ``int64`` arithmetic that could wrap, operands
numpy cannot compare) the expression is re-evaluated by its closure,
which returns — or raises — exactly what the row interpreter does.

Semantics mirror ``Expression.eval`` exactly, including the SQL-NULL
rules (comparison with ``None`` is False, arithmetic with ``None`` is
``None``): ``int64``/``float64`` columns are evaluated with numpy
ufuncs — which produce bit-identical float64 results to the per-row
Python operators — and object columns (dates, strings) with numpy's
object ufuncs, which apply the Python operator to each value at C
speed.  Only an object column that actually holds ``None`` drops to a
guarded per-value loop.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Optional

import numpy as np

from repro.engine.columnar import object_column
from repro.sql.compiler import (
    CompiledExpression,
    compile_expression,
    compile_predicate,
)
from repro.sql.expr import (
    Alias,
    BinaryOp,
    Column,
    Expression,
    Literal,
    UnaryOp,
)

MaskFn = Callable[[Any], np.ndarray]
ValueFn = Callable[[Any], Any]


class _Inexact(Exception):
    """Internal: numpy arithmetic here could differ from Python's."""


_NUMPY_CMP = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_PY_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NUMPY_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}

_PY_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

#: the dtypes whose numpy arithmetic is Python's, value for value.
_EXACT_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))
_INT64_MAX = (1 << 63) - 1
#: largest magnitude below which every int is a float64.
_FLOAT_EXACT_INT = 1 << 53


def block_mask(expr: Expression) -> MaskFn:
    """``block -> bool ndarray`` for any predicate: element i is
    ``bool(expr.eval(row i))``."""
    return _guarded(_compile_bool(expr), expr, mask=True)


def block_value(expr: Expression) -> Callable[[Any], np.ndarray]:
    """``block -> ndarray`` (one value per row, ``None`` for NULL) for
    any expression: element i is ``expr.eval(row i)``."""
    return _guarded(_compile_value(expr), expr, mask=False)


# ----------------------------------------------------------------------
# Row answers for what has no ufunc, or where the ufunc may not be exact
# ----------------------------------------------------------------------


class _Rowwise:
    """An expression's compiled closure — its truth value if ``mask``,
    else its value — row by row over the columns it references."""

    __slots__ = ("names", "fn", "dtype")

    def __init__(self, expr: Expression, mask: bool):
        self.names = tuple(sorted(expr.references()))
        self.fn = (compile_predicate if mask else compile_expression)(expr)
        self.dtype = bool if mask else object

    def __call__(self, block: Any) -> np.ndarray:
        n = len(block)
        names = self.names
        if names:
            columns = [block.numpy_column(name).tolist() for name in names]
            rows: Any = map(dict, map(zip, repeat(names), zip(*columns)))
        else:
            rows = repeat({}, n)
        return np.fromiter(map(self.fn, rows), dtype=self.dtype, count=n)


class _Guarded:
    """The ufunc tree, or the row closure where the tree cannot promise
    the row answer (see the module docstring)."""

    __slots__ = ("fast", "exact")

    def __init__(self, fast: Callable, exact: _Rowwise):
        self.fast = fast
        self.exact = exact

    def __call__(self, block: Any) -> np.ndarray:
        try:
            with np.errstate(all="ignore"):
                return _as_column(self.fast(block), len(block))
        except (_Inexact, TypeError, OverflowError, ZeroDivisionError):
            return self.exact(block)


def _guarded(fast: Callable, expr: Expression,
             mask: bool) -> Callable[[Any], np.ndarray]:
    if isinstance(fast, _Rowwise):
        return fast
    return _Guarded(fast, _Rowwise(expr, mask))


def _as_column(value: Any, n: int) -> np.ndarray:
    """A scalar (a literal, a folded constant) as n values."""
    if isinstance(value, np.ndarray):
        return value
    if type(value) is float or (
        type(value) is int and -_INT64_MAX <= value <= _INT64_MAX
    ):
        return np.full(n, value)
    return object_column(repeat(value, n), n)


# ----------------------------------------------------------------------
# Boolean level
# ----------------------------------------------------------------------


def _unwrap(expr: Expression) -> Expression:
    """``expr`` without the wrappers that do not change its value."""
    while isinstance(expr, (Alias, CompiledExpression)):
        expr = expr.child if isinstance(expr, Alias) else expr.expr
    return expr


def _compile_bool(expr: Expression) -> MaskFn:
    expr = _unwrap(expr)
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return _AndMask(_compile_bool(expr.left),
                            _compile_bool(expr.right))
        if expr.op == "or":
            return _OrMask(_compile_bool(expr.left),
                           _compile_bool(expr.right))
        if expr.op in _NUMPY_CMP:
            return _CompareMask(
                _compile_value(expr.left),
                _compile_value(expr.right), expr.op,
            )
    if isinstance(expr, UnaryOp) and expr.op == "not":
        return _NotMask(_compile_bool(expr.operand))
    return _Rowwise(expr, mask=True)


class _AndMask:
    __slots__ = ("left", "right")

    def __init__(self, left: MaskFn, right: MaskFn):
        self.left, self.right = left, right

    def __call__(self, block: Any) -> np.ndarray:
        return self.left(block) & self.right(block)


class _OrMask:
    __slots__ = ("left", "right")

    def __init__(self, left: MaskFn, right: MaskFn):
        self.left, self.right = left, right

    def __call__(self, block: Any) -> np.ndarray:
        return self.left(block) | self.right(block)


class _NotMask:
    __slots__ = ("operand",)

    def __init__(self, operand: MaskFn):
        self.operand = operand

    def __call__(self, block: Any) -> np.ndarray:
        return ~self.operand(block)


class _CompareMask:
    """Comparison with SQL-NULL semantics (NULL compares False)."""

    __slots__ = ("left", "right", "op")

    def __init__(self, left: ValueFn, right: ValueFn, op: str):
        self.left, self.right, self.op = left, right, op

    def __call__(self, block: Any) -> np.ndarray:
        a = self.left(block)
        b = self.right(block)
        if a is None or b is None:
            return np.zeros(len(block), dtype=bool)
        if (_operand_has_null(self.left, block, a)
                or _operand_has_null(self.right, block, b)):
            cmp = _PY_CMP[self.op]
            out = np.empty(len(block), dtype=bool)
            for i, (x, y) in enumerate(_pairs(a, b, len(block))):
                out[i] = (
                    False if x is None or y is None else bool(cmp(x, y))
                )
            return out
        out = _NUMPY_CMP[self.op](a, b)
        if out.ndim == 0:  # two scalars
            return np.full(len(block), bool(out))
        return out


# ----------------------------------------------------------------------
# Value level (column vectors and scalars)
# ----------------------------------------------------------------------


def _compile_value(expr: Expression) -> ValueFn:
    expr = _unwrap(expr)
    if isinstance(expr, Column):
        return _ColumnValue(expr.name)
    if isinstance(expr, Literal):
        return _LiteralValue(expr.value)
    if isinstance(expr, BinaryOp) and expr.op in _NUMPY_ARITH:
        return _ArithValue(
            _compile_value(expr.left), _compile_value(expr.right), expr.op,
        )
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return _NegValue(_compile_value(expr.operand))
    return _Rowwise(expr, mask=False)


class _ColumnValue:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __call__(self, block: Any) -> np.ndarray:
        column = block.numpy_column(self.name)
        if column.dtype in _EXACT_DTYPES or column.dtype == object:
            return column
        # bool, unsigned, narrow or string dtypes: numpy's operators
        # are not Python's on these, the boxed values' are.
        return column.astype(object)


class _LiteralValue:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __call__(self, _block: Any) -> Any:
        return self.value


class _ArithValue:
    """Arithmetic with SQL-NULL semantics (NULL propagates).

    Refuses (:class:`_Inexact`) what numpy would compute differently
    from Python: a zero divisor, ``int64`` results that could wrap, int
    division beyond float64's exact integers.
    """

    __slots__ = ("left", "right", "op")

    def __init__(self, left: ValueFn, right: ValueFn, op: str):
        self.left, self.right, self.op = left, right, op

    def __call__(self, block: Any) -> Any:
        a = self.left(block)
        b = self.right(block)
        if a is None or b is None:
            return None
        if (_operand_has_null(self.left, block, a)
                or _operand_has_null(self.right, block, b)):
            arith = _PY_ARITH[self.op]
            out = np.empty(len(block), dtype=object)
            for i, (x, y) in enumerate(_pairs(a, b, len(block))):
                out[i] = None if x is None or y is None else arith(x, y)
            return out
        if not (_is_object(a) or _is_object(b)):
            self._check(a, b)
        return _NUMPY_ARITH[self.op](a, b)

    def _check(self, a: Any, b: Any) -> None:
        op = self.op
        if op == "/" and not np.all(b):
            raise _Inexact("zero divisor")
        bound_a, bound_b = _int_bound(a), _int_bound(b)
        if bound_a is None or bound_b is None:
            return
        if op == "/":
            reach, limit = max(bound_a, bound_b), _FLOAT_EXACT_INT
        elif op == "*":
            reach, limit = bound_a * bound_b, _INT64_MAX
        else:
            reach, limit = bound_a + bound_b, _INT64_MAX
        if reach > limit:
            raise _Inexact("int64 arithmetic could wrap")


class _NegValue:
    __slots__ = ("operand",)

    def __init__(self, operand: ValueFn):
        self.operand = operand

    def __call__(self, block: Any) -> Any:
        value = self.operand(block)
        if value is None:
            return None
        if _operand_has_null(self.operand, block, value):
            out = np.empty(len(value), dtype=object)
            for i, x in enumerate(value):
                out[i] = None if x is None else -x
            return out
        return -value


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _is_object(value: Any) -> bool:
    return isinstance(value, np.ndarray) and value.dtype == object


def _has_null(value: Any) -> bool:
    """Whether an operand is an object column holding a ``None``."""
    return _is_object(value) and bool(np.equal(value, None).any())


def _operand_has_null(operand: ValueFn, block: Any, value: Any) -> bool:
    """:func:`_has_null` of ``value = operand(block)``.

    A column read off a block that keeps ``null_scans`` (the SQL
    bridge's) is scanned for ``None`` once per block, not once per node
    reading it: ``d >= lo AND d < hi`` reads ``d`` twice.
    """
    scans = (
        getattr(block, "null_scans", None)
        if type(operand) is _ColumnValue else None
    )
    if scans is None:
        return _has_null(value)
    known = scans.get(operand.name)
    if known is None:
        known = scans[operand.name] = _has_null(value)
    return known


def _int_bound(value: Any) -> Optional[int]:
    """Largest magnitude of an integer operand; None for a float one."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "i":
            return None
        if not value.size:
            return 0
        return max(abs(int(value.min())), abs(int(value.max())))
    if type(value) is int:
        return abs(value)
    return None


def _pairs(a: Any, b: Any, n: int):
    """Zip two operands elementwise, broadcasting scalars to length n."""
    a_seq = a if isinstance(a, np.ndarray) else (a,) * n
    b_seq = b if isinstance(b, np.ndarray) else (b,) * n
    return zip(a_seq, b_seq)
