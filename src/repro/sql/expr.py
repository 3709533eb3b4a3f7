"""Expression AST for the SQL layer.

Expressions evaluate against dict rows.  SQL NULL is Python ``None``
with simplified three-valued logic: comparisons involving ``None``
evaluate to ``False`` and arithmetic involving ``None`` yields ``None``.
This matches how the TPC-H workloads use NULLs (they never branch on a
NULL comparison being unknown-vs-false).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import AnalysisError

Row = Dict[str, Any]


class Expression:
    """Base expression node.

    Supports Python operator overloading so query code reads naturally:
    ``(col("a") + 1 < col("b")) & col("c").like("x%")``.
    """

    def eval(self, row: Row) -> Any:
        raise NotImplementedError

    def compiled(self) -> Callable[[Row], Any]:
        """A codegen'd closure evaluating this expression (see
        :mod:`repro.sql.compiler`).  Semantically identical to ``eval``
        but without per-row AST interpretation — use it whenever the
        same expression is applied in a loop."""
        from repro.sql.compiler import compile_expression

        return compile_expression(self)

    def references(self) -> Set[str]:
        """Column names this expression reads (for placement and pruning)."""
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        return ()

    # -- naming --------------------------------------------------------

    def output_name(self) -> str:
        """Name this expression produces in a projection."""
        return repr(self)

    # -- operator sugar -------------------------------------------------

    def _bin(self, op: str, other: Any, swap: bool = False) -> "BinaryOp":
        other_expr = other if isinstance(other, Expression) else Literal(other)
        if swap:
            return BinaryOp(op, other_expr, self)
        return BinaryOp(op, self, other_expr)

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return self._bin("+", other, swap=True)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, swap=True)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return self._bin("*", other, swap=True)

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, swap=True)

    def __eq__(self, other):  # type: ignore[override]
        return self._bin("=", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._bin("<>", other)

    def __lt__(self, other):
        return self._bin("<", other)

    def __le__(self, other):
        return self._bin("<=", other)

    def __gt__(self, other):
        return self._bin(">", other)

    def __ge__(self, other):
        return self._bin(">=", other)

    def __and__(self, other):
        return self._bin("and", other)

    def __or__(self, other):
        return self._bin("or", other)

    def __invert__(self):
        return UnaryOp("not", self)

    def __neg__(self):
        return UnaryOp("-", self)

    def __hash__(self):
        return id(self)

    # -- SQL-flavoured helpers -------------------------------------------

    def like(self, pattern: str) -> "LikeOp":
        return LikeOp(self, pattern, negated=False)

    def not_like(self, pattern: str) -> "LikeOp":
        return LikeOp(self, pattern, negated=True)


class Column(Expression):
    """Reference to a column by name."""

    def __init__(self, name: str):
        self.name = name

    def eval(self, row: Row) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise AnalysisError(
                f"column {self.name!r} not in row with columns {sorted(row)}"
            ) from None

    def references(self) -> Set[str]:
        return {self.name}

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any):
        self.value = value

    def eval(self, row: Row) -> Any:
        return self.value

    def references(self) -> Set[str]:
        return set()

    def __repr__(self) -> str:
        return repr(self.value)


_ARITH_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

_CMP_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class BinaryOp(Expression):
    """Arithmetic, comparison, or boolean connective."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITH_OPS and op not in _CMP_OPS and op not in ("and", "or"):
            raise AnalysisError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row: Row) -> Any:
        if self.op == "and":
            return bool(self.left.eval(row)) and bool(self.right.eval(row))
        if self.op == "or":
            return bool(self.left.eval(row)) or bool(self.right.eval(row))
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if self.op in _CMP_OPS:
            if lhs is None or rhs is None:
                return False
            return _CMP_OPS[self.op](lhs, rhs)
        if lhs is None or rhs is None:
            return None
        return _ARITH_OPS[self.op](lhs, rhs)

    def references(self) -> Set[str]:
        return self.left.references() | self.right.references()

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expression):
    """``not`` or numeric negation."""

    def __init__(self, op: str, operand: Expression):
        if op not in ("not", "-"):
            raise AnalysisError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def eval(self, row: Row) -> Any:
        value = self.operand.eval(row)
        if self.op == "not":
            return not bool(value)
        if value is None:
            return None
        return -value

    def references(self) -> Set[str]:
        return self.operand.references()

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class LikeOp(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (single char) wildcards."""

    def __init__(self, operand: Expression, pattern: str, negated: bool):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        self._compiled = re.compile(f"^{regex}$", re.DOTALL)

    def eval(self, row: Row) -> Any:
        value = self.operand.eval(row)
        if value is None:
            return False
        matched = self._compiled.match(str(value)) is not None
        return matched != self.negated

    def references(self) -> Set[str]:
        return self.operand.references()

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        kw = "not like" if self.negated else "like"
        return f"({self.operand!r} {kw} {self.pattern!r})"


class InOp(Expression):
    """SQL IN over a literal value list."""

    def __init__(self, operand: Expression, values: List[Any], negated: bool):
        self.operand = operand
        self.values = values
        self.negated = negated
        try:
            self._value_set = set(values)
        except TypeError:
            self._value_set = None  # unhashable values: fall back to list scan

    def eval(self, row: Row) -> Any:
        value = self.operand.eval(row)
        if value is None:
            return False
        members = self._value_set if self._value_set is not None else self.values
        return (value in members) != self.negated

    def references(self) -> Set[str]:
        return self.operand.references()

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        kw = "not in" if self.negated else "in"
        return f"({self.operand!r} {kw} {self.values!r})"


class IsNullOp(Expression):
    """SQL IS [NOT] NULL."""

    def __init__(self, operand: Expression, negated: bool):
        self.operand = operand
        self.negated = negated

    def eval(self, row: Row) -> Any:
        return (self.operand.eval(row) is None) != self.negated

    def references(self) -> Set[str]:
        return self.operand.references()

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def __repr__(self) -> str:
        kw = "is not null" if self.negated else "is null"
        return f"({self.operand!r} {kw})"


class CaseWhen(Expression):
    """SQL ``CASE WHEN cond THEN value [...] [ELSE default] END``.

    Branches are evaluated in order; with no match and no ELSE the
    result is NULL (None).
    """

    def __init__(
        self,
        branches: Sequence[Tuple[Expression, Expression]],
        default: Optional[Expression] = None,
    ):
        if not branches:
            raise AnalysisError("CASE needs at least one WHEN branch")
        self.branches = list(branches)
        self.default = default

    def eval(self, row: Row) -> Any:
        for condition, value in self.branches:
            if condition.eval(row):
                return value.eval(row)
        if self.default is not None:
            return self.default.eval(row)
        return None

    def references(self) -> Set[str]:
        refs: Set[str] = set()
        for condition, value in self.branches:
            refs |= condition.references() | value.references()
        if self.default is not None:
            refs |= self.default.references()
        return refs

    def children(self) -> Sequence[Expression]:
        kids: List[Expression] = []
        for condition, value in self.branches:
            kids.extend((condition, value))
        if self.default is not None:
            kids.append(self.default)
        return tuple(kids)

    def __repr__(self) -> str:
        inner = " ".join(
            f"when {c!r} then {v!r}" for c, v in self.branches
        )
        tail = f" else {self.default!r}" if self.default is not None else ""
        return f"(case {inner}{tail} end)"


class FuncCall(Expression):
    """Scalar function call (registered in ``SCALAR_FUNCTIONS``)."""

    def __init__(self, name: str, args: Sequence[Expression]):
        key = name.lower()
        if key not in SCALAR_FUNCTIONS:
            raise AnalysisError(f"unknown scalar function {name!r}")
        self.name = key
        self.args = list(args)
        self._impl = SCALAR_FUNCTIONS[key]

    def eval(self, row: Row) -> Any:
        return self._impl(*[arg.eval(row) for arg in self.args])

    def references(self) -> Set[str]:
        refs: Set[str] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def children(self) -> Sequence[Expression]:
        return tuple(self.args)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


def _null_safe(f: Callable) -> Callable:
    def wrapper(*args):
        if any(a is None for a in args):
            return None
        return f(*args)

    return wrapper


SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "abs": _null_safe(abs),
    "round": _null_safe(round),
    "length": _null_safe(len),
    "lower": _null_safe(lambda s: s.lower()),
    "upper": _null_safe(lambda s: s.upper()),
    "substring": _null_safe(lambda s, start, n: s[start - 1 : start - 1 + n]),
    "year": _null_safe(lambda d: d.year),
    "month": _null_safe(lambda d: d.month),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
}


class Alias(Expression):
    """Give an expression an output column name."""

    def __init__(self, child: Expression, name: str):
        self.child = child
        self.name = name

    def eval(self, row: Row) -> Any:
        return self.child.eval(row)

    def references(self) -> Set[str]:
        return self.child.references()

    def children(self) -> Sequence[Expression]:
        return (self.child,)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.child!r} AS {self.name}"


def col(name: str) -> Column:
    """Shorthand for a column reference."""
    return Column(name)


def split_conjuncts(expr: Expression) -> List[Expression]:
    """Flatten nested ANDs into a list of conjuncts."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine_conjuncts(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild a single AND expression (None for an empty list)."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("and", result, conjunct)
    return result
