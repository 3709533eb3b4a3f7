"""Physical execution: compile logical plans onto engine RDDs.

``Scan→Filter→Project`` chains — and broadcast-join probes — collapse
into a single ``map_partitions`` pass running closures generated by
:mod:`repro.sql.compiler`, so a whole stage of narrow operators costs
one RDD hop instead of one per logical node.  The tests hold every
result to ``Expression.eval`` over the rows.

Joins and aggregations become shuffles, so the engine's metrics
directly reflect the plan's shuffle structure (which the Fig. 2(b)
benchmark reports) — except when one join side's estimated cardinality
fits under ``SQLSession.broadcast_join_threshold``: that side is
collected once, indexed on the driver, and hash-probed in a
``map_partitions``, eliminating the shuffle entirely.  The chosen
strategy is recorded in the ``sql.join.broadcast`` /
``sql.join.shuffle`` counters and a ``sql.join.strategy`` span.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import AnalysisError
from repro.engine.metrics import MetricsRegistry
from repro.engine.rdd import RDD
from repro.sql.compiler import (
    compile_key,
    compile_predicate,
    compile_projection,
    compiled,
)
from repro.sql.expr import Row
from repro.sql.functions import AggregateSpec
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
    Union,
)
from repro.sql.optimizer import estimate_rows

#: fused per-row operator kinds.
_FILTER, _MAP, _FLAT = "filter", "map", "flat"


class _Stage:
    """A source RDD plus a chain of fusable operators.

    ``to_rdd`` materializes the chain as ONE ``map_partitions`` built
    from C-speed ``map``/``filter`` iterators, so stacked narrow
    operators never pay per-node RDD hops.
    """

    __slots__ = ("rdd", "ops")

    def __init__(self, rdd: RDD, ops: Tuple[Tuple[str, Callable], ...] = ()):
        self.rdd = rdd
        self.ops = ops

    def with_op(self, kind: str, fn: Callable) -> "_Stage":
        return _Stage(self.rdd, self.ops + ((kind, fn),))

    def to_rdd(self) -> RDD:
        if not self.ops:
            return self.rdd
        ops = self.ops

        def fused(part):
            it = part
            for kind, fn in ops:
                if kind == _FILTER:
                    it = filter(fn, it)
                elif kind == _MAP:
                    it = map(fn, it)
                else:  # _FLAT — map/chain bind fn now (a genexpr would
                    # capture the loop variable and see its last value).
                    it = chain.from_iterable(map(fn, it))
            return it

        return self.rdd.map_partitions(fused)


class Executor:
    """Compiles logical plans to RDDs against a catalog."""

    def __init__(self, session):
        self._session = session

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._session.engine.metrics

    def execute(self, plan: LogicalPlan) -> RDD:
        """Compile ``plan`` into an RDD of dict rows."""
        return self._stage(plan).to_rdd()

    # ------------------------------------------------------------------
    # Stage construction (narrow operators fuse; wide ones materialize)
    # ------------------------------------------------------------------

    def _stage(self, plan: LogicalPlan) -> _Stage:
        if isinstance(plan, Scan):
            return _Stage(self._session.catalog.rdd(plan.table_name))
        if isinstance(plan, Filter):
            return self._stage(plan.child).with_op(
                _FILTER, compile_predicate(plan.condition)
            )
        if isinstance(plan, Project):
            return self._stage(plan.child).with_op(
                _MAP, compile_projection(plan.exprs)
            )
        if isinstance(plan, Join):
            return self._execute_join(plan)
        if isinstance(plan, Aggregate):
            return _Stage(self._execute_aggregate(plan))
        if isinstance(plan, Sort):
            return _Stage(self._execute_sort(plan))
        if isinstance(plan, Limit):
            return _Stage(self._execute_limit(plan))
        if isinstance(plan, Distinct):
            return _Stage(self._execute_distinct(plan))
        if isinstance(plan, Union):
            rdds = [self.execute(child) for child in plan.inputs]
            return _Stage(self._session.engine.union(rdds))
        raise AnalysisError(f"no physical operator for {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _execute_join(self, plan: Join) -> _Stage:
        if self._should_broadcast(plan):
            return self._broadcast_join(plan)
        self._metrics.incr(MetricsRegistry.SQL_JOIN_SHUFFLE)
        self._record_strategy(plan, "shuffle", None)
        return _Stage(self._shuffle_join(plan))

    def _should_broadcast(self, plan: Join) -> bool:
        """True when the join's right side should be broadcast.

        Only the right side is a candidate: for semi/anti/left joins it
        is the lookup side, and for inner joins probing the streamed
        left side preserves the left-major row order regardless of
        which side is small.
        """
        threshold = self._session.broadcast_join_threshold
        if threshold <= 0:
            return False
        estimate = estimate_rows(plan.right, self._session.catalog)
        return estimate is not None and estimate <= threshold

    def _record_strategy(
        self, plan: Join, strategy: str, estimate: Optional[int]
    ) -> None:
        from repro.obs.tracing import trace

        with trace(
            "sql.join.strategy",
            strategy=strategy,
            how=plan.how,
            estimated_build_rows=estimate,
        ):
            pass

    def _broadcast_join(self, plan: Join) -> _Stage:
        """Hash-join against a broadcast right side — no shuffle.

        The collected right rows are indexed once on the driver and
        probed inside the left stage's fused ``map_partitions`` pass.
        """
        right_rows = self.execute(plan.right).collect()
        key_right = compile_key([rk for _lk, rk in plan.keys])
        table: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in right_rows:
            table.setdefault(key_right(row), []).append(row)
        self._metrics.incr(MetricsRegistry.SQL_JOIN_BROADCAST)
        self._record_strategy(plan, "broadcast", len(right_rows))

        key_left = compile_key([lk for lk, _rk in plan.keys])
        residual = plan.residual
        residual_fn = (
            compile_predicate(residual) if residual is not None else None
        )
        stage = self._stage(plan.left)

        if plan.how == "inner":

            def probe_inner(row: Row) -> Iterable[Row]:
                matches = table.get(key_left(row))
                if not matches:
                    return ()
                out = []
                for match in matches:
                    merged = dict(row)
                    merged.update(match)
                    out.append(merged)
                return out

            return stage.with_op(_FLAT, probe_inner)

        if plan.how == "left":
            right_names = plan.right.schema.names

            def probe_left(row: Row) -> Iterable[Row]:
                matches = table.get(key_left(row))
                if not matches:
                    merged = dict(row)
                    merged.update({n: None for n in right_names})
                    return (merged,)
                out = []
                for match in matches:
                    merged = dict(row)
                    merged.update(match)
                    out.append(merged)
                return out

            return stage.with_op(_FLAT, probe_left)

        # semi / anti, possibly with a residual condition.
        want_match = plan.how == "semi"
        prefix = Join.RESIDUAL_RIGHT_PREFIX

        def matches_row(row: Row) -> bool:
            candidates = table.get(key_left(row))
            if not candidates:
                return not want_match
            if residual_fn is None:
                return want_match
            for candidate in candidates:
                probe = dict(row)
                for name, value in candidate.items():
                    probe[prefix + name] = value
                if residual_fn(probe):
                    return want_match
            return not want_match

        return stage.with_op(_FILTER, matches_row)

    def _shuffle_join(self, plan: Join) -> RDD:
        left_key = compile_key([lk for lk, _rk in plan.keys])
        right_key = compile_key([rk for _lk, rk in plan.keys])
        left_rdd = self.execute(plan.left).map(
            lambda row: (left_key(row), row)
        )
        right_rdd = self.execute(plan.right).map(
            lambda row: (right_key(row), row)
        )
        residual = plan.residual
        residual_fn = (
            compile_predicate(residual) if residual is not None else None
        )
        prefix = Join.RESIDUAL_RIGHT_PREFIX

        if plan.how == "inner":

            def merge(kv):
                _key, (left_row, right_row) = kv
                merged = dict(left_row)
                merged.update(right_row)
                return merged

            return left_rdd.join(right_rdd).map(merge)

        if plan.how == "left":
            right_names = plan.right.schema.names

            def merge_left(kv):
                _key, (left_row, right_row) = kv
                merged = dict(left_row)
                if right_row is None:
                    merged.update({n: None for n in right_names})
                else:
                    merged.update(right_row)
                return merged

            return left_rdd.left_outer_join(right_rdd).map(merge_left)

        # semi / anti, possibly with a residual condition.
        want_match = plan.how == "semi"

        def matches(left_row: Row, right_rows: Sequence[Row]) -> bool:
            if residual_fn is None:
                return bool(right_rows)
            for right_row in right_rows:
                candidate = dict(left_row)
                for name, value in right_row.items():
                    candidate[prefix + name] = value
                if residual_fn(candidate):
                    return True
            return False

        def emit(kvw):
            _key, (left_rows, right_rows) = kvw
            for left_row in left_rows:
                if matches(left_row, right_rows) == want_match:
                    yield left_row

        return left_rdd.cogroup(right_rdd).flat_map(emit)

    # ------------------------------------------------------------------
    # Wide operators
    # ------------------------------------------------------------------

    def _execute_aggregate(self, plan: Aggregate) -> RDD:
        child = self.execute(plan.child)
        specs = [
            AggregateSpec(spec.func, compiled(spec.expr), spec.alias)
            for spec in plan.aggregates
        ]
        group_exprs = plan.group_exprs

        def init(row: Row) -> List[Any]:
            return [spec.add(spec.zero(), row) for spec in specs]

        def add(acc: List[Any], row: Row) -> List[Any]:
            return [spec.add(a, row) for spec, a in zip(specs, acc)]

        def merge(a: List[Any], b: List[Any]) -> List[Any]:
            return [spec.merge(x, y) for spec, x, y in zip(specs, a, b)]

        if not group_exprs:
            acc = child.aggregate([spec.zero() for spec in specs], add, merge)
            row = {
                spec.alias: spec.finish(value) for spec, value in zip(specs, acc)
            }
            return self._session.engine.parallelize([row], 1)

        group_names = [e.output_name() for e in group_exprs]
        group_key = compile_key(group_exprs)

        def to_output(kv) -> Row:
            key, acc = kv
            row = dict(zip(group_names, key))
            for spec, value in zip(specs, acc):
                row[spec.alias] = spec.finish(value)
            return row

        keyed = child.map(lambda row: (group_key(row), row))
        return keyed.combine_by_key(init, add, merge).map(to_output)

    def _execute_sort(self, plan: Sort) -> RDD:
        child = self.execute(plan.child)
        orders = plan.orders
        directions = {asc for _e, asc in orders}
        if len(directions) == 1:
            ascending = directions.pop()
            return child.sort_by(
                compile_key([e for e, _a in orders]),
                ascending=ascending,
            )
        # Mixed directions: stable multi-pass sort on the driver.  Sorts
        # sit above aggregations in our workloads, so inputs are small.
        rows = child.collect()
        for expr, ascending in reversed(orders):
            key = compile_key([expr])
            rows.sort(key=key, reverse=not ascending)
        return self._session.engine.parallelize(rows, 1)

    def _execute_limit(self, plan: Limit) -> RDD:
        """Lazy partition-aware LIMIT.

        Each partition is trimmed to at most ``n`` rows locally, the
        trimmed partitions are chained lazily (``coalesce(1)`` iterates
        parents sequentially, so later partitions are never computed
        once ``n`` rows have been produced), and a final trim caps the
        global count.  No job runs at plan-compile time.
        """
        n = plan.n
        limited = self.execute(plan.child).map_partitions(
            lambda it: islice(it, n)
        )
        if limited.num_partitions > 1:
            limited = limited.coalesce(1).map_partitions(
                lambda it: islice(it, n)
            )
        return limited

    def _execute_distinct(self, plan: Distinct) -> RDD:
        names = plan.schema.names

        def to_tuple(row: Row) -> Tuple[Any, ...]:
            return tuple(row[n] for n in names)

        def to_row(values: Tuple[Any, ...]) -> Row:
            return dict(zip(names, values))

        return self.execute(plan.child).map(to_tuple).distinct().map(to_row)
