"""SQL-to-UPA bridge: compile a SQL plan into a MapReduceQuery.

The paper's pitch is that analysts submit *unmodified* queries.  The
hand-written TPC-H workloads show the Mapper/Reducer decomposition; this
module derives it **automatically** for any counting/sum SQL plan that
is *linear* in the chosen protected table — i.e. every result row's
existence and value depend on at most one protected record (provenance
is single-rooted).

The compiler splits the logical plan at the protected table:

* subtrees that never read the protected table are **static** — they
  are evaluated once (through the ordinary SQL executor) and, where a
  join needs them, turned into hash indexes on the join key;
* the path from the protected table's scan to the aggregate is
  **dynamic** — it is compiled into a small interpreter that, given one
  protected record, produces that record's joined/filtered rows in
  O(matches) and folds them with the aggregate.

``contribution(record) = aggregate(dynamic_rows([record]))`` is then a
valid Mapper for UPA, and the reducer is scalar addition — exactly the
monoid UPA's reuse requires.  Non-linear shapes (self-joins on the
protected table, EXISTS over it, GROUP BY, DISTINCT, AVG/MIN/MAX) are
rejected with :class:`repro.common.errors.QueryShapeError`.

Example:
    >>> from repro.core.sqlbridge import compile_sql
    >>> import random
    >>> tables = {"t": [{"v": 1}, {"v": 2}, {"v": 3}]}
    >>> query = compile_sql(
    ...     "SELECT COUNT(*) AS n FROM t WHERE v > 1", tables, "t",
    ...     domain_sampler=lambda rng, tbls: {"v": rng.randrange(5)},
    ... )
    >>> float(query.output(tables)[0])
    2.0
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryShapeError
from repro.core.batch import ScalarSumBatch
from repro.core.query import MapReduceQuery, Row, Tables, sample_batch
from repro.engine.metrics import MetricsRegistry
from repro.sql.compiler import (
    compile_expression,
    compile_key,
    compile_predicate,
    compile_projection,
    plan_fingerprint,
)
from repro.sql.expr import Expression
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
)

DomainSampler = Callable[[random.Random, Tables], Row]


# ---------------------------------------------------------------------------
# Dynamic-path interpreter nodes
# ---------------------------------------------------------------------------


class _DynamicNode:
    """A plan fragment evaluated per protected record."""

    def rows(self, inputs: List[Row]) -> List[Row]:
        raise NotImplementedError


class _DynScan(_DynamicNode):
    """The protected table's scan: passes the probe record(s) through."""

    def rows(self, inputs: List[Row]) -> List[Row]:
        return inputs


class _DynFilter(_DynamicNode):
    def __init__(self, child: _DynamicNode, condition: Expression):
        self._child = child
        self._condition = compile_predicate(condition)

    def rows(self, inputs: List[Row]) -> List[Row]:
        return list(filter(self._condition, self._child.rows(inputs)))


class _DynProject(_DynamicNode):
    def __init__(self, child: _DynamicNode, exprs: Sequence[Expression]):
        self._child = child
        self._project = compile_projection(exprs)

    def rows(self, inputs: List[Row]) -> List[Row]:
        return list(map(self._project, self._child.rows(inputs)))


class _StaticIndex:
    """Hash index of a pre-materialized static relation on its join key."""

    def __init__(self, rows: List[Row], key_exprs: Sequence[Expression]):
        key_of = compile_key(key_exprs)
        self.buckets: Dict[Tuple, List[Row]] = defaultdict(list)
        for row in rows:
            self.buckets[key_of(row)].append(row)

    def probe(self, key: Tuple) -> List[Row]:
        return self.buckets.get(key, [])


class _DynJoinStatic(_DynamicNode):
    """Inner equi-join of the dynamic side against an indexed static side."""

    def __init__(
        self,
        child: _DynamicNode,
        child_keys: Sequence[Expression],
        index: _StaticIndex,
        residual: Optional[Expression],
        residual_prefix: str,
        dynamic_is_left: bool,
    ):
        self._child = child
        self._key_of = compile_key(child_keys)
        self._index = index
        self._residual = (
            compile_predicate(residual) if residual is not None else None
        )
        self._prefix = residual_prefix
        self._dynamic_is_left = dynamic_is_left

    def rows(self, inputs: List[Row]) -> List[Row]:
        out: List[Row] = []
        residual = self._residual
        for row in self._child.rows(inputs):
            for match in self._index.probe(self._key_of(row)):
                if self._dynamic_is_left:
                    merged = dict(row)
                    merged.update(match)
                else:
                    merged = dict(match)
                    merged.update(row)
                if residual is not None and not residual(merged):
                    continue
                out.append(merged)
        return out


class _DynSemiAnti(_DynamicNode):
    """Semi/anti join of the dynamic side against an indexed static side."""

    def __init__(
        self,
        child: _DynamicNode,
        child_keys: Sequence[Expression],
        index: _StaticIndex,
        want_match: bool,
        residual: Optional[Expression],
        prefix: str,
    ):
        self._child = child
        self._key_of = compile_key(child_keys)
        self._index = index
        self._want_match = want_match
        self._residual = (
            compile_predicate(residual) if residual is not None else None
        )
        self._prefix = prefix

    def _matches(self, row: Row) -> bool:
        candidates = self._index.probe(self._key_of(row))
        if self._residual is None:
            return bool(candidates)
        for candidate in candidates:
            merged = dict(row)
            for name, value in candidate.items():
                merged[self._prefix + name] = value
            if self._residual(merged):
                return True
        return False

    def rows(self, inputs: List[Row]) -> List[Row]:
        return [
            row for row in self._child.rows(inputs)
            if self._matches(row) == self._want_match
        ]


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def _reads_protected(plan: LogicalPlan, protected: str) -> bool:
    return any(
        isinstance(node, Scan) and node.table_name == protected
        for node in plan.walk()
    )


class _Compiler:
    def __init__(self, tables: Tables, protected: str):
        self.tables = tables
        self.protected = protected
        # A throwaway SQL session evaluates the static subtrees with the
        # ordinary (tested) executor.  Broadcast joins are disabled:
        # the shuffle join's deterministic grouping fixes static row
        # order, and :class:`_StaticIndex` bucket order decides float
        # summation order — bitwise golden outputs depend on it.
        from repro.sql.session import SQLSession

        self._session = SQLSession(broadcast_join_threshold=0)
        for name, rows in tables.items():
            self._session.create_table(name, rows)

    def static_rows(self, plan: LogicalPlan) -> List[Row]:
        return self._session.execute_plan(plan).collect()

    def compile(self, plan: LogicalPlan) -> _DynamicNode:
        """Compile the dynamic path rooted at ``plan``."""
        if isinstance(plan, Scan):
            if plan.table_name != self.protected:
                raise QueryShapeError(
                    f"internal: static scan {plan.table_name!r} reached the "
                    "dynamic compiler"
                )
            return _DynScan()
        if isinstance(plan, Filter):
            return _DynFilter(self.compile(plan.child), plan.condition)
        if isinstance(plan, Project):
            return _DynProject(self.compile(plan.child), plan.exprs)
        if isinstance(plan, Join):
            return self._compile_join(plan)
        if isinstance(plan, (Distinct, Sort, Limit)):
            raise QueryShapeError(
                f"{type(plan).__name__} over the protected table is not "
                "linear in individual records"
            )
        raise QueryShapeError(
            f"cannot compile operator {type(plan).__name__} on the "
            "protected path"
        )

    def _compile_join(self, plan: Join) -> _DynamicNode:
        left_dyn = _reads_protected(plan.left, self.protected)
        right_dyn = _reads_protected(plan.right, self.protected)
        if left_dyn and right_dyn:
            raise QueryShapeError(
                "the protected table appears on both sides of a join "
                "(self-join): the query is not linear in its records"
            )
        if not left_dyn and not right_dyn:
            raise QueryShapeError(
                "internal: fully static join reached the dynamic compiler"
            )

        if plan.how in ("semi", "anti"):
            if right_dyn:
                raise QueryShapeError(
                    "EXISTS/IN over the protected table is not linear: one "
                    "record can change the membership of many result rows"
                )
            child = self.compile(plan.left)
            child_keys = [lk for lk, _rk in plan.keys]
            static_keys = [rk for _lk, rk in plan.keys]
            index = _StaticIndex(self.static_rows(plan.right), static_keys)
            return _DynSemiAnti(
                child, child_keys, index,
                want_match=(plan.how == "semi"),
                residual=plan.residual,
                prefix=Join.RESIDUAL_RIGHT_PREFIX,
            )

        if plan.how == "left" and right_dyn:
            raise QueryShapeError(
                "LEFT JOIN with the protected table on the right is not "
                "linear: adding a record flips NULL-extended rows"
            )
        if plan.how == "left" and left_dyn:
            raise QueryShapeError(
                "LEFT JOIN on the protected path is not supported by the "
                "bridge (NULL-extension mixes static and dynamic rows)"
            )

        if left_dyn:
            child = self.compile(plan.left)
            child_keys = [lk for lk, _rk in plan.keys]
            static_side, static_keys = plan.right, [rk for _lk, rk in plan.keys]
        else:
            child = self.compile(plan.right)
            child_keys = [rk for _lk, rk in plan.keys]
            static_side, static_keys = plan.left, [lk for lk, _rk in plan.keys]
        index = _StaticIndex(self.static_rows(static_side), static_keys)
        return _DynJoinStatic(
            child, child_keys, index,
            residual=plan.residual,
            residual_prefix=Join.RESIDUAL_RIGHT_PREFIX,
            dynamic_is_left=left_dyn,
        )


def _find_aggregate(plan: LogicalPlan) -> Tuple[Aggregate, LogicalPlan]:
    node = plan
    while isinstance(node, (Project, Sort, Limit)):
        node = node.children()[0]
    if not isinstance(node, Aggregate):
        raise QueryShapeError(
            "the bridge compiles aggregate queries; no global aggregate found"
        )
    if node.group_exprs:
        raise QueryShapeError("GROUP BY output is not a scalar query")
    if len(node.aggregates) != 1:
        raise QueryShapeError("exactly one aggregate is required")
    spec = node.aggregates[0]
    if spec.func not in ("count", "sum"):
        raise QueryShapeError(
            f"{spec.func.upper()} is not linear in individual records; "
            "only COUNT and SUM are supported"
        )
    return node, node.child


class CompiledSQLQuery(ScalarSumBatch, MapReduceQuery):
    """A MapReduceQuery derived from a SQL plan by provenance analysis.

    The compiled static structures are built from the tables given at
    compile time; neighbouring datasets may vary the *protected* table
    freely (that is the whole point), but the other tables are fixed —
    the same assumption every hand-written workload makes.  COUNT/SUM
    reducers are scalar addition, so the vectorized batch kernels come
    from :class:`~repro.core.batch.ScalarSumBatch`.
    """

    output_dim = 1

    def __init__(
        self,
        name: str,
        protected_table: str,
        dynamic: _DynamicNode,
        spec: AggregateSpec,
        domain_sampler: Optional[DomainSampler],
    ):
        self.name = name
        self.protected_table = protected_table
        self._dynamic = dynamic
        self._spec = spec
        self._value_fn = (
            compile_expression(spec.expr) if spec.expr is not None else None
        )
        self._domain_sampler = domain_sampler

    # -- monoid -------------------------------------------------------------

    def build_aux(self, tables: Tables) -> Any:
        return None

    def contribution(self, record: Row) -> float:
        rows = self._dynamic.rows([record])
        value_fn = self._value_fn
        if self._spec.func == "count":
            if value_fn is None:
                return float(len(rows))
            return float(
                sum(1 for row in rows if value_fn(row) is not None)
            )
        total = 0.0
        for row in rows:
            value = value_fn(row)  # type: ignore[misc]
            if value is not None:
                total += value
        return total

    def map_record(self, record: Row, aux: Any) -> float:
        return self.contribution(record)

    def zero(self) -> float:
        return 0.0

    def combine(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, agg: float, aux: Any) -> np.ndarray:
        return np.asarray([float(agg)], dtype=float)

    def _sampler(self) -> DomainSampler:
        if self._domain_sampler is None:
            raise QueryShapeError(
                f"query {self.name!r} has no domain sampler; pass "
                "domain_sampler= to compile_plan/compile_sql to enable "
                "'+1 record' neighbours"
            )
        return self._domain_sampler

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        return self._sampler()(rng, tables)

    def sample_domain_batch(self, rng: random.Random, tables: Tables,
                            n: int) -> Sequence[Row]:
        return sample_batch(self._sampler(), rng, tables, n)


# ---------------------------------------------------------------------------
# Bridge compile cache
# ---------------------------------------------------------------------------
#
# A UPA run replays one compiled query over ~2n neighbours, but callers
# (sessions, baselines, comparisons) routinely re-invoke compile_sql /
# compile_plan for the same plan against the same tables.  The expensive
# parts — static subtree execution and index construction — depend only
# on the plan shape and the *non-protected* tables, so those are cached
# here keyed by the canonical plan fingerprint.  Entries hold strong
# references to the static row lists and hits require object identity,
# so a recycled id() can never alias a stale entry; mutating a static
# table in place is outside the bridge's contract (non-protected tables
# are fixed, the same assumption every hand-written workload makes).

_BRIDGE_CACHE_SIZE = 64
_bridge_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_bridge_lock = threading.Lock()


def clear_bridge_cache() -> None:
    with _bridge_lock:
        _bridge_cache.clear()


def _compile_dynamic(
    plan_child: LogicalPlan,
    tables: Tables,
    protected_table: str,
    engine=None,
) -> _DynamicNode:
    fingerprint = plan_fingerprint(plan_child)
    static_names = tuple(
        sorted(name for name in tables if name != protected_table)
    )
    cacheable = "(opaque" not in fingerprint
    metrics = engine.metrics if engine is not None else None
    if cacheable:
        key = (fingerprint, protected_table, static_names)
        with _bridge_lock:
            entry = _bridge_cache.get(key)
        if entry is not None:
            dynamic, static_rows = entry
            if all(tables[n] is static_rows[n] for n in static_names):
                if metrics is not None:
                    metrics.incr(MetricsRegistry.SQL_PLAN_CACHE_HITS)
                return dynamic
        if metrics is not None:
            metrics.incr(MetricsRegistry.SQL_PLAN_CACHE_MISSES)
    compiler = _Compiler(tables, protected_table)
    dynamic = compiler.compile(plan_child)
    if cacheable:
        with _bridge_lock:
            _bridge_cache[key] = (
                dynamic,
                {n: tables[n] for n in static_names},
            )
            while len(_bridge_cache) > _BRIDGE_CACHE_SIZE:
                _bridge_cache.popitem(last=False)
                if metrics is not None:
                    metrics.incr(MetricsRegistry.SQL_PLAN_CACHE_EVICTIONS)
    return dynamic


def compile_plan(
    plan: LogicalPlan,
    tables: Tables,
    protected_table: str,
    domain_sampler: Optional[DomainSampler] = None,
    name: str = "sql-query",
    engine=None,
) -> CompiledSQLQuery:
    """Compile a logical plan into a UPA-ready MapReduceQuery.

    ``engine`` (an :class:`~repro.engine.context.EngineContext`), when
    given, receives ``sql.plan_cache.*`` hit/miss counters for the
    bridge's compile cache.

    Raises:
        QueryShapeError: if the plan is not a single COUNT/SUM linear in
            ``protected_table``.
    """
    if protected_table not in tables:
        raise QueryShapeError(
            f"unknown protected table {protected_table!r}; "
            f"have {sorted(tables)}"
        )
    aggregate, child = _find_aggregate(plan)
    if not _reads_protected(child, protected_table):
        raise QueryShapeError(
            f"the query never reads the protected table "
            f"{protected_table!r}; its sensitivity would be zero"
        )
    dynamic = _compile_dynamic(child, tables, protected_table, engine)
    return CompiledSQLQuery(
        name, protected_table, dynamic, aggregate.aggregates[0], domain_sampler
    )


def compile_sql(
    sql_text: str,
    tables: Tables,
    protected_table: str,
    domain_sampler: Optional[DomainSampler] = None,
    name: Optional[str] = None,
    engine=None,
) -> CompiledSQLQuery:
    """Parse SQL text and compile it for UPA (see :func:`compile_plan`)."""
    from repro.obs.tracing import trace
    from repro.sql.parser import parse_sql
    from repro.sql.session import SQLSession

    with trace("sqlbridge.compile", sql=sql_text[:120],
               protected_table=protected_table):
        session = SQLSession()
        for table_name, rows in tables.items():
            session.create_table(table_name, rows)
        plan = parse_sql(sql_text, session)
        return compile_plan(
            plan, tables, protected_table, domain_sampler,
            name=name or f"sql:{sql_text[:40]}",
            engine=engine,
        )
