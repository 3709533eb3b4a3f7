"""FLEX's static sensitivity analysis over logical plans.

Support check (UPA paper, Table II): the plan must be a single global
``COUNT(*)`` (or ``COUNT(col)``) over a tree of Scan / Filter / Project
/ Join operators.  Grouping, non-count aggregates (SUM/AVG/MIN/MAX),
and non-SQL queries are unsupported.

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
from repro.sql.expr import Column, Expression
from repro.sql.logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
)
from repro.baselines.flex.metadata import TableMetadata


@dataclass
class FlexAnalysis:
    """Result of FLEX's static analysis.

    Attributes:
        sensitivity: the inferred local sensitivity of the count.
        factors: human-readable per-join factors (for reports/tests).
        ignored_filters: filter predicates the analysis skipped.
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
        aggregate = _find_count_aggregate(plan)
        analysis = FlexAnalysis(sensitivity=1.0)
        _walk(aggregate.child, metadata, analysis)
        return analysis


def flex_fragment_reason(plan: LogicalPlan) -> Optional[str]:
    """Why FLEX's fragment rejects ``plan`` — None if it is supported.

    Runs the same structural checks as :func:`flex_local_sensitivity`
    (single global COUNT, Scan/Filter/Project/Join operators,
    raw-column join keys rooted in base tables) but without column
    metadata, so it needs no data.  ``tests/test_tpch.py`` checks every
    TPC-H query's declared ``flex_supported`` flag against it.
    """
    try:
        aggregate = _find_count_aggregate(plan)
        _walk(aggregate.child, None, FlexAnalysis(sensitivity=1.0))
    except FlexUnsupportedError as exc:
        return str(exc)
    return None


def _find_count_aggregate(plan: LogicalPlan) -> Aggregate:
    """Locate the single global COUNT; reject anything else."""
    node = plan
    while isinstance(node, (Project, Sort, Limit)):
        node = node.children()[0]
    if not isinstance(node, Aggregate):
        raise FlexUnsupportedError(
            "FLEX supports only counting queries; no aggregate found"
        )
    if node.group_exprs:
        raise FlexUnsupportedError("FLEX does not support GROUP BY")
    if len(node.aggregates) != 1:
        raise FlexUnsupportedError(
            "FLEX supports a single COUNT aggregate per query"
        )
    spec = node.aggregates[0]
    if spec.func != "count":
        raise FlexUnsupportedError(
            f"FLEX supports COUNT only, not {spec.func.upper()} "
            "(arithmetic and ML queries are out of scope)"
        )
    return node


def _walk(node: LogicalPlan, metadata: Optional[TableMetadata],
          analysis: FlexAnalysis) -> None:
    if isinstance(node, Scan):
        return
    if isinstance(node, Filter):
        analysis.ignored_filters.append(repr(node.condition))
        _walk(node.child, metadata, analysis)
        return
    if isinstance(node, (Project, Distinct)):
        _walk(node.children()[0], metadata, analysis)
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
    key: Expression, side: LogicalPlan, metadata: Optional[TableMetadata]
) -> int:
    """Max frequency of a join-key column in its *base* table.

    FLEX's metadata is per raw column; computed join keys are outside
    its fragment.  With ``metadata=None`` (fragment check only) the
    structural requirements are still enforced and 1 is returned.
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
    if metadata is None:
        return 1
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
