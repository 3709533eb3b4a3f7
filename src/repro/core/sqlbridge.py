"""SQL-to-UPA bridge: compile a SQL plan into a MapReduceQuery.

The paper's pitch is that analysts submit *unmodified* queries.  The
hand-written TPC-H workloads show the Mapper/Reducer decomposition; this
module derives it **automatically** for any counting/sum SQL plan that
is *linear* in the chosen protected table — i.e. every result row's
existence and value depend on at most one protected record (provenance
is single-rooted).

The compiler splits the logical plan at the protected table:

* subtrees that never read the protected table are **static** — the
  query's ``build_aux(tables)`` evaluates them (through the ordinary SQL
  executor) over the tables it is given and turns each into a hash
  index on its join key;
* the path from the protected table's scan to the aggregate is
  **dynamic** — it is compiled into a plan over column blocks that,
  given a batch of protected records and those indexes, produces every
  record's joined/filtered rows (filter masks, key-array joins) and
  folds them per record with the aggregate.  The compiled plan holds
  no table data.

``map_record(record, aux) = aggregate(dynamic_rows([record]))`` —
element i of ``map_batch`` — is then a valid Mapper for UPA, and the
reducer is scalar addition — exactly the monoid UPA's reuse requires.
Non-linear shapes (self-joins on the protected table, EXISTS over it,
GROUP BY, DISTINCT, AVG/MIN/MAX) are rejected with
:class:`repro.common.errors.QueryShapeError`.

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
from collections import OrderedDict
from itertools import count, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import AnalysisError, QueryShapeError
from repro.core.batch import ScalarSumBatch, column_values
from repro.core.query import MapReduceQuery, Row, Tables, sample_batch
from repro.engine.columnar import gather_columns, object_column
from repro.engine.metrics import MetricsRegistry
from repro.sql.compiler import (
    compile_expression,
    compile_key,
    compile_predicate,
    compile_projection,
    plan_fingerprint,
)
from repro.sql.expr import CaseWhen, Expression, Literal, UnaryOp
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
from repro.sql.vectorized import block_mask, block_value

DomainSampler = Callable[[random.Random, Tables], Row]
#: a compiled query's aux: one index per static join, by slot.
Aux = Sequence["_StaticIndex"]


# ---------------------------------------------------------------------------
# Dynamic-path nodes
# ---------------------------------------------------------------------------
#
# Every node answers two ways.  ``block(batch, aux)`` is the production
# path: the whole record batch flows through the plan as columns, and
# the aggregate folds each record's rows by ``origin``.  ``rows([r],
# aux)`` is the row interpreter — one record, dict rows — kept as the
# scalar reference (``map_record``) that ``output``, ``validate_monoid``
# and the equivalence tests hold the batch path to, bit for bit.
# ``aux`` is the query's ``build_aux``: the static joins' indexes, which
# a static join reads at its ``slot``.


class _Block:
    """Rows of the dynamic path as columns, loaded when first read.

    ``origin[i]`` is the position in the mapped batch of the record
    row i derives from; every node keeps it non-decreasing, so a
    record's rows stay in the order the row interpreter emits them.
    ``load(name)`` produces a column (``KeyError`` if the rows have no
    such column); a plan therefore gathers only the columns it reads.
    ``null_scans`` is :mod:`repro.sql.vectorized`'s memory of which
    columns hold a ``None``: it lives as long as the loaded columns do,
    so a column is scanned once per block, not once per node reading it.
    """

    __slots__ = ("origin", "_load", "_columns", "null_scans")

    def __init__(self, origin: np.ndarray,
                 load: Callable[[str], np.ndarray]):
        self.origin = origin
        self._load = load
        self._columns: Dict[str, np.ndarray] = {}
        self.null_scans: Dict[str, bool] = {}

    def __len__(self) -> int:
        return len(self.origin)

    def numpy_column(self, name: str) -> np.ndarray:
        column = self._columns.get(name)
        if column is None:
            try:
                column = self._columns[name] = self._load(name)
            except KeyError:
                raise AnalysisError(
                    f"column {name!r} not in the rows on the protected path"
                ) from None
        return column

    def take(self, index: np.ndarray) -> "_Block":
        """The rows at ``index`` (ascending positions in this block)."""
        return _Block(
            self.origin[index],
            lambda name: self.numpy_column(name)[index],
        )


class _DynamicNode:
    """A plan fragment over the protected table's records."""

    def block(self, batch: Sequence[Row], aux: Aux) -> _Block:
        """The fragment's rows for a whole batch of records."""
        raise NotImplementedError

    def rows(self, inputs: List[Row], aux: Aux) -> List[Row]:
        """The fragment's rows, by the row interpreter."""
        raise NotImplementedError


class _DynScan(_DynamicNode):
    """The protected table's scan: passes the probe record(s) through."""

    def block(self, batch: Sequence[Row], aux: Aux) -> _Block:
        return _Block(
            np.arange(len(batch)),
            lambda name: column_values(batch, name, dtype=None),
        )

    def rows(self, inputs: List[Row], aux: Aux) -> List[Row]:
        return inputs


class _DynFilter(_DynamicNode):
    def __init__(self, child: _DynamicNode, condition: Expression):
        self._child = child
        self._mask = block_mask(condition)
        self._condition = compile_predicate(condition)

    def block(self, batch: Sequence[Row], aux: Aux) -> _Block:
        child = self._child.block(batch, aux)
        return child.take(np.flatnonzero(self._mask(child)))

    def rows(self, inputs: List[Row], aux: Aux) -> List[Row]:
        return list(filter(self._condition, self._child.rows(inputs, aux)))


class _DynProject(_DynamicNode):
    def __init__(self, child: _DynamicNode, exprs: Sequence[Expression]):
        self._child = child
        self._values = [(e.output_name(), block_value(e)) for e in exprs]
        self._project = compile_projection(exprs)

    def block(self, batch: Sequence[Row], aux: Aux) -> _Block:
        child = self._child.block(batch, aux)
        columns = {name: value(child) for name, value in self._values}
        return _Block(child.origin, columns.__getitem__)

    def rows(self, inputs: List[Row], aux: Aux) -> List[Row]:
        return list(map(self._project, self._child.rows(inputs, aux)))


def _row_key(exprs: Sequence[Expression]) -> Callable[[Row], Any]:
    """A dict row's join key: the value itself for one key expression,
    a tuple for several."""
    if len(exprs) == 1:
        return compile_expression(exprs[0])
    return compile_key(exprs)


def _holds_null(key: Any) -> bool:
    """True for a :func:`_row_key` key that is, or holds, NULL."""
    return key is None or (isinstance(key, tuple) and None in key)


def _block_keys(exprs: Sequence[Expression]) -> Callable[[_Block], list]:
    """:func:`_row_key` of every row of a block."""
    values = [block_value(expr) for expr in exprs]
    if len(values) == 1:
        return lambda block: values[0](block).tolist()
    return lambda block: list(
        zip(*(value(block).tolist() for value in values))
    )


class _StaticIndex:
    """Hash index of a pre-materialized static relation on its join key.

    The relation is held once, as the executor's row list; a key's
    bucket is the ids of its rows in relation order, all buckets laid
    end to end in ``row_ids`` (bucket ``slot`` is ``row_ids[starts[slot]
    : starts[slot] + counts[slot]]``).  Bucket order decides float
    summation order downstream, so both probes keep it.

    A key holding NULL matches nothing, as in the SQL executor: such
    rows get no bucket, so a probe key holding NULL finds none either.
    """

    def __init__(self, rows: List[Row], key_exprs: Sequence[Expression]):
        self.rows = rows
        #: the relation's columns, gathered when a plan first reads one.
        #: Two threads may both gather; either array serves every reader.
        self._columns: Dict[str, np.ndarray] = {}
        n = len(rows)
        keys = _block_keys(key_exprs)(_Block(np.arange(n), self.column))
        #: key -> slot, slots numbered in first-seen key order.
        self.slots = dict(zip(
            (key for key in dict.fromkeys(keys) if not _holds_null(key)),
            count(),
        ))
        # Rows without a bucket take slot ``len(slots)``, past every
        # bucket, so no ``starts``/``counts`` range reaches them.
        slot_of_row = np.fromiter(
            map(self.slots.get, keys, repeat(len(self.slots))),
            dtype=np.intp, count=n,
        )
        self.counts = np.bincount(
            slot_of_row, minlength=len(self.slots) + 1
        )[:len(self.slots)]
        self.starts = np.cumsum(self.counts) - self.counts
        # Row ids by (slot, row id): a stable sort of ``slot_of_row``.
        self.row_ids = np.sort(slot_of_row * n + np.arange(n)) % max(n, 1)

    def column(self, name: str) -> np.ndarray:
        column = self._columns.get(name)
        if column is None:
            column = self._columns[name] = object_column(
                gather_columns(self.rows, [name])[0], len(self.rows)
            )
        return column

    def probe(self, key: Any) -> List[Row]:
        """The rows of ``key``'s bucket (the row interpreter's probe)."""
        slot = self.slots.get(key)
        if slot is None:
            return []
        start = self.starts[slot]
        ids = self.row_ids[start:start + self.counts[slot]]
        return [self.rows[row_id] for row_id in ids.tolist()]

    def lookup(self, keys: list) -> np.ndarray:
        """The bucket slot of each key (-1: no bucket), one dict pass."""
        return np.fromiter(
            map(self.slots.get, keys, repeat(-1)), dtype=np.intp,
            count=len(keys),
        )

    def expand(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every (probe position, static row id) match of ``slots``:
        probe positions ascending, a probe's matches in bucket order."""
        hits = np.flatnonzero(slots >= 0)
        slots = slots[hits]
        counts = self.counts[slots]
        probe = np.repeat(hits, counts)
        first = np.cumsum(counts) - counts
        within = np.arange(len(probe)) - np.repeat(first, counts)
        return probe, self.row_ids[np.repeat(self.starts[slots], counts)
                                   + within]


class _StaticJoin(_DynamicNode):
    """A dynamic child probing an indexed static side, ``aux[slot]``.

    ``static_columns`` maps a merged row's column name to the static
    column it reads; every other name reads the child's row.
    """

    def __init__(
        self,
        child: _DynamicNode,
        child_keys: Sequence[Expression],
        slot: int,
        static_columns: Dict[str, str],
    ):
        self._child = child
        self._key_of = _row_key(child_keys)
        self._keys = _block_keys(child_keys)
        self._slot = slot
        self._static_columns = static_columns

    def _merged(self, child: _Block, index: _StaticIndex,
                slots: np.ndarray) -> Tuple[np.ndarray, _Block]:
        """The merged row of every match, and the position in ``child``
        of the row each one extends."""
        probe, row_ids = index.expand(slots)
        static_columns = self._static_columns

        def load(name: str) -> np.ndarray:
            source = static_columns.get(name)
            if source is not None:
                return index.column(source)[row_ids]
            return child.numpy_column(name)[probe]

        return probe, _Block(child.origin[probe], load)


class _DynJoinStatic(_StaticJoin):
    """Inner equi-join of the dynamic side against an indexed static side."""

    def __init__(
        self,
        child: _DynamicNode,
        child_keys: Sequence[Expression],
        slot: int,
        dynamic_is_left: bool,
        static_names: Sequence[str],
    ):
        # Join refuses sides that share a column name, so which side a
        # merged row's column comes from does not depend on the order.
        super().__init__(
            child, child_keys, slot, {name: name for name in static_names},
        )
        self._dynamic_is_left = dynamic_is_left

    def block(self, batch: Sequence[Row], aux: Aux) -> _Block:
        child = self._child.block(batch, aux)
        index = aux[self._slot]
        return self._merged(child, index, index.lookup(self._keys(child)))[1]

    def rows(self, inputs: List[Row], aux: Aux) -> List[Row]:
        index = aux[self._slot]
        out: List[Row] = []
        for row in self._child.rows(inputs, aux):
            for match in index.probe(self._key_of(row)):
                if self._dynamic_is_left:
                    merged = dict(row)
                    merged.update(match)
                else:
                    merged = dict(match)
                    merged.update(row)
                out.append(merged)
        return out


class _DynSemiAnti(_StaticJoin):
    """Semi/anti join of the dynamic side against an indexed static side."""

    def __init__(
        self,
        child: _DynamicNode,
        child_keys: Sequence[Expression],
        slot: int,
        want_match: bool,
        residual: Optional[Expression],
        prefix: str,
        static_names: Sequence[str],
    ):
        # The residual sees the static side's columns under ``prefix``.
        super().__init__(
            child, child_keys, slot,
            {prefix + name: name for name in static_names},
        )
        self._want_match = want_match
        self._prefix = prefix
        self._residual = (
            compile_predicate(residual) if residual is not None else None
        )
        self._residual_mask = (
            block_mask(residual) if residual is not None else None
        )

    def block(self, batch: Sequence[Row], aux: Aux) -> _Block:
        child = self._child.block(batch, aux)
        index = aux[self._slot]
        slots = index.lookup(self._keys(child))
        if self._residual_mask is None:
            matched = slots >= 0
        else:
            probe, merged = self._merged(child, index, slots)
            matched = np.zeros(len(child), dtype=bool)
            matched[probe[self._residual_mask(merged)]] = True
        return child.take(np.flatnonzero(matched == self._want_match))

    def _row_matches(self, index: _StaticIndex, row: Row) -> bool:
        candidates = index.probe(self._key_of(row))
        if self._residual is None:
            return bool(candidates)
        for candidate in candidates:
            merged = dict(row)
            for name, value in candidate.items():
                merged[self._prefix + name] = value
            if self._residual(merged):
                return True
        return False

    def rows(self, inputs: List[Row], aux: Aux) -> List[Row]:
        index = aux[self._slot]
        return [
            row for row in self._child.rows(inputs, aux)
            if self._row_matches(index, row) == self._want_match
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
    def __init__(self, protected: str):
        self.protected = protected
        #: (static subplan, its join keys) of each static join, by slot.
        self.statics: List[Tuple[LogicalPlan, List[Expression]]] = []

    def static_slot(self, plan: LogicalPlan,
                    keys: List[Expression]) -> int:
        self.statics.append((plan, keys))
        return len(self.statics) - 1

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
            return _DynSemiAnti(
                child, child_keys, self.static_slot(plan.right, static_keys),
                want_match=(plan.how == "semi"),
                residual=plan.residual,
                prefix=Join.RESIDUAL_RIGHT_PREFIX,
                static_names=plan.right.schema.names,
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
            dynamic_side, static_side = plan.left, plan.right
            child_keys = [lk for lk, _rk in plan.keys]
            static_keys = [rk for _lk, rk in plan.keys]
        else:
            dynamic_side, static_side = plan.right, plan.left
            child_keys = [rk for _lk, rk in plan.keys]
            static_keys = [lk for lk, _rk in plan.keys]
        slot = self.static_slot(static_side, static_keys)
        return _DynJoinStatic(
            self.compile(dynamic_side), child_keys, slot,
            dynamic_is_left=left_dyn,
            static_names=static_side.schema.names,
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


def _counts(spec: AggregateSpec) -> bool:
    """Whether each record moves the answer by a whole number: a COUNT,
    or a SUM of an integer literal or of a CASE whose every branch and
    default is one (``SUM(CASE WHEN ... THEN 1 ELSE 0 END)``).  A
    negated literal (``THEN -1``) is one too, and so is a missing ELSE,
    whose NULL the SUM skips."""
    if spec.func == "count":
        return True
    if spec.func != "sum":
        return False
    values = [spec.expr]
    if isinstance(spec.expr, CaseWhen):
        values = [value for _, value in spec.expr.branches]
        if spec.expr.default is not None:
            values.append(spec.expr.default)
    return all(_is_int_literal(value) for value in values)


def _is_int_literal(value: Expression) -> bool:
    """An integer literal, or one negated (``-1`` parses as a UnaryOp)."""
    if isinstance(value, UnaryOp) and value.op == "-":
        value = value.operand
    return isinstance(value, Literal) and type(value.value) is int


class CompiledSQLQuery(ScalarSumBatch, MapReduceQuery):
    """A MapReduceQuery derived from a SQL plan by provenance analysis.

    The query holds no table data.  Like a hand-written query, it reads
    the public tables in :meth:`build_aux`, whichever tables it is
    given: neighbouring datasets vary the *protected* table, and a
    session keeps the aux per the public tables it read (DESIGN.md
    section 5, item 9).  COUNT/SUM reducers are scalar addition, so the
    fold kernels come from :class:`~repro.core.batch.ScalarSumBatch`;
    ``map_batch`` runs the compiled plan over the batch as column
    blocks, and ``map_record`` (the row interpreter) is the scalar
    reference it equals bit for bit.
    """

    output_dim = 1

    def __init__(
        self,
        name: str,
        protected_table: str,
        dynamic: _DynamicNode,
        statics: Sequence[Tuple[LogicalPlan, List[Expression]]],
        spec: AggregateSpec,
        domain_sampler: Optional[DomainSampler],
        fingerprint: str,
    ):
        self.name = name
        self.protected_table = protected_table
        #: what the query computes, as opposed to what it is called: two
        #: queries with equal fingerprints release the same thing.  An
        #: opaque node fingerprints by id(), which a later plan may
        #: reuse, so such a query equals only itself.
        self.plan_fingerprint: Hashable = (
            self if "(opaque" in fingerprint
            else (protected_table, fingerprint)
        )
        #: Table II's kind: a count query's noise never falls below
        #: width 1 (``core.session.noise_floor``).
        self.query_type = "count" if _counts(spec) else "arithmetic"
        self._dynamic = dynamic
        self._statics = statics
        self._static_tables = sorted(
            {name for plan, _keys in statics for name in plan.base_tables()}
        )
        self._spec = spec
        if spec.expr is None:
            self._value_fn = self._value = None
        else:
            self._value_fn = compile_expression(spec.expr)
            self._value = block_value(spec.expr)
        self._domain_sampler = domain_sampler

    # -- monoid -------------------------------------------------------------

    def build_aux(self, tables: Tables) -> Tuple[_StaticIndex, ...]:
        """Each static join's index: its subplan run over ``tables``.

        A throwaway SQL session runs the subplans with the ordinary
        (tested) executor, over the tables they scan, each looked up by
        name, and no other.  Its row order is a contract (DESIGN.md
        section 5, item 12), and :class:`_StaticIndex` bucket order,
        which follows it, decides float summation order.
        """
        if not self._statics:
            return ()
        from repro.sql.session import SQLSession

        session = SQLSession()
        for name in self._static_tables:
            session.create_table(name, tables[name])
        return tuple(
            _StaticIndex(session.execute_plan(plan).collect(), keys)
            for plan, keys in self._statics
        )

    def map_batch(self, records: Sequence[Row], aux: Aux) -> np.ndarray:
        """Every record's contribution, from one pass over the plan.

        ``np.bincount`` adds a record's rows to its slot in row order,
        starting from 0.0 — the additions :meth:`map_record` performs,
        in the same order, so each element has the same bits.
        """
        block = self._dynamic.block(records, aux)
        origin, weights = block.origin, None
        if self._value is not None:
            values = self._value(block)
            summed = self._spec.func == "sum"
            if values.dtype == object:
                present = np.not_equal(values, None)
                origin, values = origin[present], values[present]
                if summed:
                    # Python's ``0.0 + value``: text raises here as it
                    # does there, instead of being parsed as a number.
                    values = np.add(0.0, values)
            if summed:
                weights = np.asarray(values, dtype=float)
        return np.bincount(
            origin, weights=weights, minlength=len(records)
        ).astype(float, copy=False)

    def map_record(self, record: Row, aux: Aux) -> float:
        """One record's contribution, by the row interpreter: the
        scalar reference :meth:`map_batch` is held to."""
        rows = self._dynamic.rows([record], aux)
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
# compile_plan for the same plan.  The compiled dynamic tree depends
# only on the plan and the protected table, and holds no table data, so
# it is cached here keyed by the canonical plan fingerprint.  What the
# static side read is the query's aux, and which public tables a
# release depends on is decided in one place: the session's aux cache
# (core.table.TableRegistry.aux, DESIGN.md section 5, item 9).

_BRIDGE_CACHE_SIZE = 64
_bridge_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_bridge_lock = threading.Lock()


def clear_bridge_cache() -> None:
    with _bridge_lock:
        _bridge_cache.clear()


def _compile_dynamic(
    plan_child: LogicalPlan, protected_table: str, engine=None,
) -> Tuple[_DynamicNode, Tuple[Tuple[LogicalPlan, List[Expression]], ...]]:
    """The dynamic tree of ``plan_child`` and its static joins' subplans
    and keys, by slot."""
    fingerprint = plan_fingerprint(plan_child)
    cacheable = "(opaque" not in fingerprint
    key = (fingerprint, protected_table)
    if cacheable:
        with _bridge_lock:
            entry = _bridge_cache.get(key)
        if entry is not None:
            if engine is not None:
                engine.metrics.incr(MetricsRegistry.SQL_PLAN_CACHE_HITS)
            return entry
    compiler = _Compiler(protected_table)
    entry = compiler.compile(plan_child), tuple(compiler.statics)
    if cacheable:
        with _bridge_lock:
            _bridge_cache[key] = entry
            while len(_bridge_cache) > _BRIDGE_CACHE_SIZE:
                _bridge_cache.popitem(last=False)
    return entry


def compile_plan(
    plan: LogicalPlan,
    tables: Tables,
    protected_table: str,
    domain_sampler: Optional[DomainSampler] = None,
    name: str = "sql-query",
    engine=None,
) -> CompiledSQLQuery:
    """Compile a logical plan into a UPA-ready MapReduceQuery.

    ``tables`` must hold every table the plan scans; the query reads
    none of them until :meth:`CompiledSQLQuery.build_aux`.  ``engine``
    (an :class:`~repro.engine.context.EngineContext`), when given,
    counts the hits of the bridge's compile cache.  The counter
    keeps the name ``sql.plan_cache.hits`` although this is the only
    plan cache: ``SQLSession`` caches no plans.

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
    for table_name in sorted(child.base_tables()):
        if table_name not in tables:
            raise AnalysisError(
                f"unknown table {table_name!r}; registered: {sorted(tables)}"
            )
    dynamic, statics = _compile_dynamic(child, protected_table, engine)
    return CompiledSQLQuery(
        name, protected_table, dynamic, statics, aggregate.aggregates[0],
        domain_sampler, plan_fingerprint(plan),
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
