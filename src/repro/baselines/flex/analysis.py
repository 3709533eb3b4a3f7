"""FLEX's static sensitivity analysis over logical plans.

Support check (UPA paper, Table II): the plan must be a single global
``COUNT(*)`` (or ``COUNT(col)``) over a tree of Scan / Filter / Project
/ Join operators.  Non-count aggregates (SUM/AVG/MIN/MAX) and non-SQL
queries are unsupported, and the parser refuses GROUP BY text.

Sensitivity rule (UPA paper, section II-B): for each join the analysis
"multiplies the frequencies of the most frequently-occurring item from
each of the two columns, because removing a record from the dataset can
at most affect such a number of joined records"; with multiple joins
the per-join worst cases multiply — which is exactly where the paper
shows FLEX's error magnifying (TPCH16, TPCH21).  Filters are ignored.
Semi/anti joins (EXISTS / NOT IN) are analyzed like joins: FLEX bounds
how many surviving rows one record can influence through the match
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import FlexUnsupportedError
from repro.sql.expr import Column, Expression, split_conjuncts
from repro.sql.logical import (
    Filter,
    Join,
    LogicalPlan,
    Project,
    Scan,
    single_aggregate,
)
from repro.baselines.flex.metadata import TableMetadata


@dataclass
class FlexAnalysis:
    """Result of FLEX's static analysis.

    Attributes:
        sensitivity: the inferred local sensitivity of the count.
        factors: human-readable per-join factors (for reports/tests).
        ignored_filters: the WHERE conjuncts the analysis skipped, one
            entry each, however the planner groups them into filters.
    """

    sensitivity: float
    factors: List[str] = field(default_factory=list)
    ignored_filters: List[str] = field(default_factory=list)


def flex_local_sensitivity(
    plan: LogicalPlan, tables: Dict[str, list]
) -> FlexAnalysis:
    """Analyze a counting query's plan against base-table metadata.

    Raises:
        FlexUnsupportedError: for any query outside FLEX's fragment.
    """
    from repro.obs.tracing import trace

    with trace("baseline.flex"):
        metadata = TableMetadata(tables)
        aggregate = single_aggregate(plan, FlexUnsupportedError)
        func = aggregate.aggregates[0].func
        if func != "count":
            raise FlexUnsupportedError(
                f"FLEX supports COUNT only, not {func.upper()} "
                "(arithmetic and ML queries are out of scope)"
            )
        analysis = FlexAnalysis(sensitivity=1.0)
        _walk(aggregate.child, metadata, analysis)
        return analysis


def _walk(node: LogicalPlan, metadata: TableMetadata,
          analysis: FlexAnalysis) -> None:
    if isinstance(node, Scan):
        return
    if isinstance(node, Filter):
        analysis.ignored_filters.extend(
            repr(conjunct) for conjunct in split_conjuncts(node.condition)
        )
        _walk(node.child, metadata, analysis)
        return
    if isinstance(node, Project):
        _walk(node.child, metadata, analysis)
        return
    if isinstance(node, Join):
        for left_key, right_key in node.keys:
            left_mf = _key_max_frequency(left_key, node.left, metadata)
            right_mf = _key_max_frequency(right_key, node.right, metadata)
            factor = max(1, left_mf) * max(1, right_mf)
            analysis.sensitivity *= factor
            analysis.factors.append(
                f"join[{node.how}] {left_key!r} (mf={left_mf}) x "
                f"{right_key!r} (mf={right_mf}) -> {factor}"
            )
        _walk(node.left, metadata, analysis)
        _walk(node.right, metadata, analysis)
        return
    raise FlexUnsupportedError(
        f"FLEX cannot analyze operator {type(node).__name__}"
    )


def _key_max_frequency(
    key: Expression, side: LogicalPlan, metadata: TableMetadata
) -> int:
    """Max frequency of a join-key column in its *base* table.

    FLEX's metadata is per raw column; computed join keys are outside
    its fragment.
    """
    if not isinstance(key, Column):
        raise FlexUnsupportedError(
            f"FLEX supports only raw-column join keys, got {key!r}"
        )
    scan = _scan_providing(side, key.name)
    if scan is None:
        raise FlexUnsupportedError(
            f"join key {key.name!r} does not come from a base table"
        )
    return metadata.max_frequency(scan.table_name, key.name)


def _scan_providing(node: LogicalPlan, column: str) -> Optional[Scan]:
    if isinstance(node, Scan):
        return node if node.schema.has(column) else None
    for child in node.children():
        if child.schema.has(column):
            found = _scan_providing(child, column)
            if found is not None:
                return found
    return None
