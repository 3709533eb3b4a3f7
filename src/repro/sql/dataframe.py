"""DataFrame: the fluent builder over logical plans.

Mirrors the shape of Spark's DataFrame API: transformations build a new
DataFrame with a bigger plan; ``collect``/``count`` execute through the
session's optimizer and physical executor.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import AnalysisError
from repro.engine.rdd import RDD
from repro.sql.expr import Column, Expression, col
from repro.sql.functions import AggregateSpec
from repro.sql.logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Sort,
)
from repro.sql.optimizer import optimize

OnClause = Union[str, Sequence[str], Sequence[Tuple[Expression, Expression]]]


def _as_expr(item: Union[str, Expression]) -> Expression:
    return col(item) if isinstance(item, str) else item


class DataFrame:
    """A logical plan plus the session that can run it."""

    def __init__(self, session, plan: LogicalPlan):
        self.session = session
        self.plan = plan

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    @property
    def schema(self):
        return self.plan.schema

    @property
    def columns(self) -> List[str]:
        return self.plan.schema.names

    def filter(self, condition: Expression) -> "DataFrame":
        """Rows where ``condition`` holds (aka ``where``)."""
        return DataFrame(self.session, Filter(self.plan, condition))

    where = filter

    def select(self, *exprs: Union[str, Expression]) -> "DataFrame":
        """Project the given columns / expressions."""
        if not exprs:
            raise AnalysisError("select needs at least one expression")
        return DataFrame(
            self.session, Project(self.plan, [_as_expr(e) for e in exprs])
        )

    def with_column(self, name: str, expr: Expression) -> "DataFrame":
        """Append (or replace) one computed column."""
        kept = [col(n) for n in self.columns if n != name]
        return DataFrame(
            self.session, Project(self.plan, kept + [expr.alias(name)])
        )

    def join(
        self,
        other: "DataFrame",
        on: OnClause,
        how: str = "inner",
        residual: Optional[Expression] = None,
    ) -> "DataFrame":
        """Equi-join with ``other``.

        ``on`` may be a column name (same on both sides), a list of such
        names, or a list of ``(left_expr, right_expr)`` pairs.  An inner
        join's ``residual`` filters the merged row, so it names either
        side's columns as they are; see :class:`repro.sql.logical.Join`
        for a semi/anti join's.
        """
        keys = self._normalize_on(on)
        if how == "inner" and residual is not None:
            joined = Join(self.plan, other.plan, keys, how)
            return DataFrame(self.session, Filter(joined, residual))
        return DataFrame(
            self.session, Join(self.plan, other.plan, keys, how, residual=residual)
        )

    def semi_join(self, other: "DataFrame", on: OnClause,
                  residual: Optional[Expression] = None) -> "DataFrame":
        """SQL EXISTS: keep left rows with a match in ``other``."""
        return self.join(other, on, how="semi", residual=residual)

    def anti_join(self, other: "DataFrame", on: OnClause,
                  residual: Optional[Expression] = None) -> "DataFrame":
        """SQL NOT EXISTS: keep left rows with no match in ``other``."""
        return self.join(other, on, how="anti", residual=residual)

    @staticmethod
    def _normalize_on(on: OnClause) -> List[Tuple[Expression, Expression]]:
        if isinstance(on, str):
            return [(col(on), col(on))]
        on = list(on)
        if not on:
            raise AnalysisError("join 'on' clause is empty")
        if isinstance(on[0], str):
            return [(col(n), col(n)) for n in on]  # type: ignore[arg-type]
        return [( _as_expr(l), _as_expr(r)) for l, r in on]  # type: ignore[misc]

    def group_by(self, *exprs: Union[str, Expression]) -> "GroupedData":
        """Start a grouped aggregation."""
        return GroupedData(self, [_as_expr(e) for e in exprs])

    def agg(self, *aggregates: AggregateSpec) -> "DataFrame":
        """Global aggregation (no grouping): always yields one row."""
        return DataFrame(self.session, Aggregate(self.plan, [], list(aggregates)))

    def order_by(
        self, *exprs: Union[str, Expression], ascending: Union[bool, Sequence[bool]] = True
    ) -> "DataFrame":
        keys = [_as_expr(e) for e in exprs]
        if isinstance(ascending, bool):
            flags = [ascending] * len(keys)
        else:
            flags = list(ascending)
            if len(flags) != len(keys):
                raise AnalysisError("ascending list must match sort keys")
        return DataFrame(self.session, Sort(self.plan, list(zip(keys, flags))))

    def limit(self, n: int) -> "DataFrame":
        return DataFrame(self.session, Limit(self.plan, n))

    def distinct(self) -> "DataFrame":
        return DataFrame(self.session, Distinct(self.plan))

    def union_all(self, other: "DataFrame") -> "DataFrame":
        """Concatenate two DataFrames with identical column names."""
        from repro.sql.logical import Union

        return DataFrame(self.session, Union([self.plan, other.plan]))

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def to_rdd(self) -> RDD:
        """The optimized plan as an RDD of dict rows."""
        return self.session.execute_plan(self.plan)

    def collect(self) -> List[Dict[str, Any]]:
        return self.to_rdd().collect()

    def count(self) -> int:
        return self.to_rdd().count()

    def first(self) -> Dict[str, Any]:
        return self.to_rdd().first()

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        rows = self.collect()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise AnalysisError(
                f"scalar() expects exactly one row and one column, got "
                f"{len(rows)} row(s) with columns {list(rows[0]) if rows else []}"
            )
        return next(iter(rows[0].values()))

    def show(self, n: int = 20) -> str:
        """Render the first ``n`` rows as an aligned text table."""
        rows = self.limit(n).collect()
        names = self.columns
        cells = [[_fmt(row.get(name)) for name in names] for row in rows]
        widths = [
            max([len(name)] + [len(row[i]) for row in cells])
            for i, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(w) for name, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(value.ljust(w) for value, w in zip(row, widths))
            for row in cells
        ]
        table = "\n".join([header, sep] + body)
        print(table)
        return table

    def explain(self, optimized: bool = True) -> str:
        """Pretty-print the (optionally optimized) logical plan."""
        plan = optimize(self.plan) if optimized else self.plan
        text = plan.pretty()
        print(text)
        return text


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


class GroupedData:
    """Intermediate object returned by :meth:`DataFrame.group_by`."""

    def __init__(self, df: DataFrame, group_exprs: List[Expression]):
        self._df = df
        self._group_exprs = group_exprs

    def agg(self, *aggregates: AggregateSpec) -> DataFrame:
        return DataFrame(
            self._df.session,
            Aggregate(self._df.plan, self._group_exprs, list(aggregates)),
        )

    def count(self, alias: str = "count") -> DataFrame:
        from repro.sql.functions import count_star

        return self.agg(count_star(alias))
