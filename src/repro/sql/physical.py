"""Physical execution: compile logical plans onto engine RDDs.

SQL runs one way.  ``Scan→Filter→Project`` chains and hash-join probes
collapse into a single ``map_partitions`` pass running closures
generated by :mod:`repro.sql.compiler`, so a whole stage of narrow
operators costs one RDD hop instead of one per logical node.  A join
collects and indexes its right side on the driver; the global aggregate
folds each partition on the engine and merges on the driver.  Nothing
shuffles.  Row order is a contract (DESIGN.md §5), not a by-product of
the algorithm, and the tests hold every result to ``Expression.eval``
over the rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.common.errors import AnalysisError
from repro.engine.rdd import RDD
from repro.sql.compiler import (
    compile_key,
    compile_predicate,
    compile_projection,
    compiled,
)
from repro.sql.expr import Row
from repro.sql.functions import AggregateSpec
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan

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
            return self._join(plan)
        if isinstance(plan, Aggregate):
            return _Stage(self._execute_aggregate(plan))
        raise AnalysisError(f"no physical operator for {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _join(self, plan: Join) -> _Stage:
        """Hash join: the right side is collected and indexed on the
        driver once, and the probe runs inside the left stage's fused
        ``map_partitions`` pass, so rows come out left-major with a left
        row's matches in right-side order.

        A key holding NULL matches nothing (``NULL = x`` is not true):
        such right rows are never indexed, so a left row whose key holds
        NULL finds no match — inner and semi joins drop it and an anti
        join keeps it (NOT EXISTS).
        """
        key_right = compile_key([rk for _lk, rk in plan.keys])
        table: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in self.execute(plan.right).collect():
            key = key_right(row)
            if None not in key:
                table.setdefault(key, []).append(row)

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

    # ------------------------------------------------------------------
    # The global aggregate
    # ------------------------------------------------------------------

    def _execute_aggregate(self, plan: Aggregate) -> RDD:
        """Each partition folds its rows, the driver merges the partial
        results in partition order into one row."""
        child = self.execute(plan.child)
        specs = [
            AggregateSpec(spec.func, compiled(spec.expr), spec.alias)
            for spec in plan.aggregates
        ]

        def add(acc: List[Any], row: Row) -> List[Any]:
            return [spec.add(a, row) for spec, a in zip(specs, acc)]

        def merge(a: List[Any], b: List[Any]) -> List[Any]:
            return [spec.merge(x, y) for spec, x, y in zip(specs, a, b)]

        acc = child.aggregate([spec.zero() for spec in specs], add, merge)
        row = {spec.alias: spec.finish(value) for spec, value in zip(specs, acc)}
        return self._session.engine.parallelize([row], 1)
