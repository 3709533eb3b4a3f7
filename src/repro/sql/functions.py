"""Aggregate function specifications.

An :class:`AggregateSpec` is a monoid (zero / add / merge / finish), so
physical execution can combine partial aggregates in any order — the
commutativity + associativity property UPA's sensitivity inference
relies on (paper section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Set

from repro.common.errors import AnalysisError
from repro.sql.expr import Expression, Row

_SUPPORTED = ("count", "count_distinct", "sum", "avg", "min", "max")


@dataclass
class AggregateSpec:
    """One aggregate of a global aggregate's row.

    Attributes:
        func: one of count / count_distinct / sum / avg / min / max.
        expr: argument expression; None means ``COUNT(*)``.
        alias: output column name.
    """

    func: str
    expr: Optional[Expression]
    alias: str

    def __post_init__(self) -> None:
        if self.func not in _SUPPORTED:
            raise AnalysisError(
                f"unsupported aggregate {self.func!r}; expected one of {_SUPPORTED}"
            )
        if self.expr is None and self.func != "count":
            raise AnalysisError(f"{self.func} requires an argument expression")

    def references(self) -> Set[str]:
        return self.expr.references() if self.expr is not None else set()

    # -- monoid interface ------------------------------------------------

    def zero(self) -> Any:
        if self.func == "count":
            return 0
        if self.func == "count_distinct":
            return set()
        if self.func == "sum":
            return None  # SQL SUM of no rows is NULL
        if self.func in ("avg",):
            return (0.0, 0)
        return None  # min/max of no rows is NULL

    def add(self, acc: Any, row: Row) -> Any:
        if self.func == "count":
            if self.expr is None:
                return acc + 1
            return acc + (1 if self.expr.eval(row) is not None else 0)
        value = self.expr.eval(row)  # type: ignore[union-attr]
        if value is None:
            return acc
        if self.func == "count_distinct":
            acc.add(value)
            return acc
        if self.func == "sum":
            return value if acc is None else acc + value
        if self.func == "avg":
            total, n = acc
            return (total + value, n + 1)
        if self.func == "min":
            return value if acc is None or value < acc else acc
        return value if acc is None or value > acc else acc  # max

    def merge(self, a: Any, b: Any) -> Any:
        if self.func == "count":
            return a + b
        if self.func == "count_distinct":
            a |= b
            return a
        if self.func == "sum":
            if a is None:
                return b
            if b is None:
                return a
            return a + b
        if self.func == "avg":
            return (a[0] + b[0], a[1] + b[1])
        if self.func == "min":
            if a is None:
                return b
            if b is None:
                return a
            return a if a <= b else b
        if a is None:
            return b
        if b is None:
            return a
        return a if a >= b else b  # max

    def finish(self, acc: Any) -> Any:
        if self.func == "count_distinct":
            return len(acc)
        if self.func == "avg":
            total, n = acc
            return None if n == 0 else total / n
        return acc

    def __repr__(self) -> str:
        arg = "*" if self.expr is None else repr(self.expr)
        return f"{self.func}({arg}) AS {self.alias}"

