"""Rule-based logical-plan optimizer.

Implemented rules (each a pure plan-to-plan function, applied to a
fixpoint):

* **CombineFilters** — collapse stacked filters into one conjunction.
* **PushFilterThroughProject** — move a filter below a projection when
  the projection only renames/forwards columns the filter needs.
* **PushFilterIntoJoin** — split a filter above a join into conjuncts
  and push each conjunct to the side whose columns it references.
* **PruneColumns** — insert projections directly above scans so only
  columns actually consumed upstream are materialized.

The optimizer is semantics-preserving; tests compare optimized vs
unoptimized results row-for-row on randomized plans.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

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
    UnaryOp,
    combine_conjuncts,
    split_conjuncts,
)
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


def substitute(expr: Expression, mapping: Dict[str, Expression]) -> Expression:
    """Rebuild ``expr`` with column references replaced via ``mapping``."""
    if isinstance(expr, Column):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Alias):
        return Alias(substitute(expr.child, mapping), expr.name)
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, LikeOp):
        return LikeOp(substitute(expr.operand, mapping), expr.pattern, expr.negated)
    if isinstance(expr, InOp):
        return InOp(substitute(expr.operand, mapping), expr.values, expr.negated)
    if isinstance(expr, IsNullOp):
        return IsNullOp(substitute(expr.operand, mapping), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, [substitute(a, mapping) for a in expr.args])
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            [
                (substitute(c, mapping), substitute(v, mapping))
                for c, v in expr.branches
            ],
            substitute(expr.default, mapping)
            if expr.default is not None
            else None,
        )
    return expr


def _rewrite_bottom_up(
    plan: LogicalPlan, rule: Callable[[LogicalPlan], LogicalPlan]
) -> LogicalPlan:
    children = [_rewrite_bottom_up(c, rule) for c in plan.children()]
    if children:
        plan = plan.with_children(children)
    return rule(plan)


def combine_filters(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Filter) and isinstance(plan.child, Filter):
        merged = combine_conjuncts([plan.child.condition, plan.condition])
        assert merged is not None
        return Filter(plan.child.child, merged)
    return plan


def push_filter_through_project(plan: LogicalPlan) -> LogicalPlan:
    if not (isinstance(plan, Filter) and isinstance(plan.child, Project)):
        return plan
    project = plan.child
    mapping: Dict[str, Expression] = {}
    for expr in project.exprs:
        if isinstance(expr, Column):
            mapping[expr.name] = expr
        elif isinstance(expr, Alias) and isinstance(expr.child, Column):
            mapping[expr.name] = expr.child
        # computed expressions are not simple renames: pushing a filter
        # through them would duplicate work, so those names stay blocked.
    refs = plan.condition.references()
    if not refs <= set(mapping):
        return plan
    pushed = substitute(plan.condition, mapping)
    return Project(Filter(project.child, pushed), project.exprs)


def push_filter_into_join(plan: LogicalPlan) -> LogicalPlan:
    if not (isinstance(plan, Filter) and isinstance(plan.child, Join)):
        return plan
    join = plan.child
    left_cols = set(join.left.schema.names)
    right_cols = set(join.right.schema.names)
    left_pushed: List[Expression] = []
    right_pushed: List[Expression] = []
    kept: List[Expression] = []
    for conjunct in split_conjuncts(plan.condition):
        refs = conjunct.references()
        if refs <= left_cols:
            left_pushed.append(conjunct)
        elif join.how == "inner" and refs <= right_cols:
            right_pushed.append(conjunct)
        else:
            kept.append(conjunct)
    if not left_pushed and not right_pushed:
        return plan
    new_left = join.left
    left_cond = combine_conjuncts(left_pushed)
    if left_cond is not None:
        new_left = Filter(new_left, left_cond)
    new_right = join.right
    right_cond = combine_conjuncts(right_pushed)
    if right_cond is not None:
        new_right = Filter(new_right, right_cond)
    new_join = Join(new_left, new_right, join.keys, join.how,
                    residual=join.residual)
    kept_cond = combine_conjuncts(kept)
    if kept_cond is None:
        return new_join
    return Filter(new_join, kept_cond)


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
        for expr in plan.group_exprs:
            needed |= expr.references()
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
    if isinstance(plan, Sort):
        needed = set(required_out)
        for expr, _asc in plan.orders:
            needed |= expr.references()
        return [needed]
    if isinstance(plan, (Limit, Distinct)):
        # Distinct semantics depend on every column, so keep them all.
        if isinstance(plan, Distinct):
            return [set(plan.child.schema.names)]
        return [set(required_out)]
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


_REWRITE_RULES = (combine_filters, push_filter_through_project, push_filter_into_join)


def optimize(plan: LogicalPlan, max_iterations: int = 10) -> LogicalPlan:
    """Apply all rules to a fixpoint (bounded), then prune columns."""
    for _ in range(max_iterations):
        before = plan.pretty()
        for rule in _REWRITE_RULES:
            plan = _rewrite_bottom_up(plan, rule)
        if plan.pretty() == before:
            break
    return prune_columns(plan)
