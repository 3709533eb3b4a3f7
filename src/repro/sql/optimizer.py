"""Column pruning, the one rewrite a parsed plan gets before it runs.

The parser already places each WHERE conjunct where it reads (see
:meth:`repro.sql.parser._Planner._build_join_tree`), so what is left is
**PruneColumns**: a projection directly above each scan keeps only the
columns consumed upstream.  Pruning is semantics-preserving; the tests
compare pruned and unpruned plans row for row on randomized plans.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.sql.expr import Column
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan


def _required_for_node(plan: LogicalPlan, required_out: Set[str]) -> List[Set[str]]:
    """Columns each child must provide so this node can produce
    ``required_out`` of its own output columns."""
    if isinstance(plan, Filter):
        return [required_out | plan.condition.references()]
    if isinstance(plan, Project):
        needed: Set[str] = set()
        for expr in plan.exprs:
            if expr.output_name() in required_out:
                needed |= expr.references()
        return [needed]
    if isinstance(plan, Aggregate):
        needed = set()
        for agg in plan.aggregates:
            needed |= agg.references()
        return [needed]
    if isinstance(plan, Join):
        left_cols = set(plan.left.schema.names)
        right_cols = set(plan.right.schema.names)
        left_needed = required_out & left_cols
        right_needed = required_out & right_cols
        for left_key, right_key in plan.keys:
            left_needed |= left_key.references()
            right_needed |= right_key.references()
        if plan.residual is not None:
            for ref in plan.residual.references():
                if ref.startswith(Join.RESIDUAL_RIGHT_PREFIX):
                    right_needed.add(ref[len(Join.RESIDUAL_RIGHT_PREFIX):])
                else:
                    left_needed.add(ref)
        if plan.how in ("semi", "anti"):
            left_needed |= required_out
        return [left_needed, right_needed]
    return [set(c.schema.names) for c in plan.children()]


def prune_columns(plan: LogicalPlan, required: Optional[Set[str]] = None) -> LogicalPlan:
    """Insert column-pruning projections directly above scans."""
    if required is None:
        required = set(plan.schema.names)
    if isinstance(plan, Scan):
        keep = [n for n in plan.schema.names if n in required]
        if len(keep) < len(plan.schema.names) and keep:
            return Project(plan, [Column(n) for n in keep])
        return plan
    child_required = _required_for_node(plan, required)
    new_children = [
        prune_columns(child, child_req)
        for child, child_req in zip(plan.children(), child_required)
    ]
    return plan.with_children(new_children)


def optimize(plan: LogicalPlan) -> LogicalPlan:
    """The plan as it runs: ``plan`` with its columns pruned."""
    return prune_columns(plan)
