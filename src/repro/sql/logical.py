"""Logical query plans.

Plan nodes are immutable-ish trees that carry an output schema.  They
are built by the SQL parser, column-pruned by the optimizer, and executed
by :mod:`repro.sql.physical`.  The FLEX baseline walks these trees for
its static sensitivity analysis.  A plan yields plain rows (scans,
filters, projections and joins) or one global aggregate row over them:
what SQL text reaches (:mod:`repro.sql.parser`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Type

from repro.common.errors import AnalysisError
from repro.sql.expr import Expression
from repro.sql.functions import AggregateSpec
from repro.sql.types import ANY, Field, Schema

JOIN_TYPES = ("inner", "semi", "anti")


class LogicalPlan:
    """Base class: every node knows its children and output schema."""

    def children(self) -> Sequence["LogicalPlan"]:
        raise NotImplementedError

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        """Rebuild this node with new children (for column pruning)."""
        raise NotImplementedError

    # -- pretty printing --------------------------------------------------

    def _describe(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self._describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.pretty()

    # -- traversal helpers -------------------------------------------------

    def walk(self):
        """Yield every node, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def base_tables(self) -> "set[str]":
        """Names of every base table this plan scans.

        Used by the static analyzer and the SQL bridge to decide which
        subtrees touch the protected table.
        """
        return {
            node.table_name for node in self.walk()
            if isinstance(node, Scan)
        }


class Scan(LogicalPlan):
    """Read a named table from the catalog."""

    def __init__(self, table_name: str, schema: Schema):
        self.table_name = table_name
        self._schema = schema

    def children(self) -> Sequence[LogicalPlan]:
        return ()

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children: Sequence[LogicalPlan]) -> "Scan":
        if children:
            raise AnalysisError("Scan takes no children")
        return self

    def _describe(self) -> str:
        return f"Scan({self.table_name})"


class Filter(LogicalPlan):
    """Keep rows where ``condition`` is true."""

    def __init__(self, child: LogicalPlan, condition: Expression):
        missing = condition.references() - set(child.schema.names)
        if missing:
            raise AnalysisError(
                f"filter references unknown columns {sorted(missing)}; "
                f"child has {child.schema.names}"
            )
        self.child = child
        self.condition = condition

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def with_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        (child,) = children
        return Filter(child, self.condition)

    def _describe(self) -> str:
        return f"Filter({self.condition!r})"


class Project(LogicalPlan):
    """Compute output columns from expressions."""

    def __init__(self, child: LogicalPlan, exprs: Sequence[Expression]):
        child_cols = set(child.schema.names)
        for expr in exprs:
            missing = expr.references() - child_cols
            if missing:
                raise AnalysisError(
                    f"projection {expr!r} references unknown columns "
                    f"{sorted(missing)}"
                )
        names = [e.output_name() for e in exprs]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate output names in projection: {names}")
        self.child = child
        self.exprs = list(exprs)
        self._schema = Schema([Field(n, ANY) for n in names])

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return Project(child, self.exprs)

    def _describe(self) -> str:
        return f"Project({', '.join(e.output_name() for e in self.exprs)})"


class Join(LogicalPlan):
    """Equi-join on key expression pairs, with an optional residual.

    ``how`` in {'inner', 'semi', 'anti'}.  Semi/anti output only the
    left side's columns (SQL EXISTS / NOT EXISTS, and [NOT] IN).

    ``residual`` is an extra match condition of a semi/anti join,
    evaluated per candidate pair *after* the equi-key match.  Because
    semi/anti self-joins can have identical column names on both sides
    (e.g. TPC-H Q21 joins lineitem with lineitem), the residual sees the
    right side's columns under the prefix :data:`RESIDUAL_RIGHT_PREFIX`
    — e.g. ``col("__r_l_suppkey") != col("l_suppkey")``.  An inner
    join takes no residual: its extra conditions are a :class:`Filter`
    over the join, as the parser plans WHERE.
    """

    RESIDUAL_RIGHT_PREFIX = "__r_"

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        keys: Sequence[Tuple[Expression, Expression]],
        how: str = "inner",
        residual: Optional[Expression] = None,
    ):
        if how not in JOIN_TYPES:
            raise AnalysisError(f"join type {how!r} not in {JOIN_TYPES}")
        if not keys:
            raise AnalysisError("join needs at least one key pair")
        left_cols = set(left.schema.names)
        right_cols = set(right.schema.names)
        for left_key, right_key in keys:
            if left_key.references() - left_cols:
                raise AnalysisError(
                    f"left join key {left_key!r} not in {sorted(left_cols)}"
                )
            if right_key.references() - right_cols:
                raise AnalysisError(
                    f"right join key {right_key!r} not in {sorted(right_cols)}"
                )
        if residual is not None:
            if how == "inner":
                raise AnalysisError(
                    "INNER JOIN takes no residual; filter after the join"
                )
            prefix = self.RESIDUAL_RIGHT_PREFIX
            for ref in residual.references():
                if ref.startswith(prefix):
                    if ref[len(prefix):] not in right_cols:
                        raise AnalysisError(
                            f"residual references unknown right column {ref!r}"
                        )
                elif ref not in left_cols:
                    raise AnalysisError(
                        f"residual references unknown left column {ref!r}"
                    )
        self.left = left
        self.right = right
        self.keys = list(keys)
        self.how = how
        self.residual = residual
        if how in ("semi", "anti"):
            self._schema = left.schema
        else:
            overlap = left_cols & right_cols
            if overlap:
                raise AnalysisError(
                    f"join output column collision: {sorted(overlap)}; "
                    "project/rename one side before joining"
                )
            self._schema = left.schema.merge(right.schema)

    def children(self) -> Sequence[LogicalPlan]:
        return (self.left, self.right)

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return Join(left, right, self.keys, self.how, residual=self.residual)

    def _describe(self) -> str:
        key_desc = ", ".join(f"{l!r}={r!r}" for l, r in self.keys)
        extra = f", residual={self.residual!r}" if self.residual is not None else ""
        return f"Join[{self.how}]({key_desc}{extra})"


class Aggregate(LogicalPlan):
    """A global aggregate: one output row, one column per aggregate."""

    def __init__(self, child: LogicalPlan,
                 aggregates: Sequence[AggregateSpec]):
        child_cols = set(child.schema.names)
        for agg in aggregates:
            if agg.references() - child_cols:
                raise AnalysisError(f"aggregate {agg!r} references unknown columns")
        if not aggregates:
            raise AnalysisError("aggregate needs at least one aggregate")
        self.child = child
        self.aggregates = list(aggregates)
        names = [a.alias for a in self.aggregates]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate output names in aggregate: {names}")
        self._schema = Schema([Field(n, ANY) for n in names])

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self._schema

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.aggregates)

    def _describe(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregate({aggs})"


def single_aggregate(plan: LogicalPlan, error: Type[Exception]) -> Aggregate:
    """The one aggregate a release computes, under the projections SQL
    text plans over it: the SQL bridge and FLEX each check a plan's
    shape here, then which aggregate function it is.

    Raises:
        error: if the plan computes no aggregate, or more than one.
    """
    node = plan
    while isinstance(node, Project):
        node = node.child
    if not isinstance(node, Aggregate):
        raise error("a release is one aggregate; the query computes none")
    if len(node.aggregates) != 1:
        raise error(
            f"a release is one aggregate; the query computes "
            f"{len(node.aggregates)}"
        )
    return node
