"""UPASession: the end-to-end UPA pipeline (paper Figure 1).

One release runs five phases:

1. **Partition & Sample** — :mod:`repro.core.sampling`.
2. **Parallel Map** — the query's mapper applied to S, S-bar and S'
   on the MapReduce engine.
3. **Union Preserving Reduce** — ``R(M(S'))`` is computed once per
   partition and *reused* for every sampled neighbouring dataset:
   removal neighbours come from prefix/suffix folds over the n mapped
   samples (O(n) combines total instead of O(n * |x|)); addition
   neighbours combine one extra mapped record with f(x)'s aggregate.
4. **Range inference** — :mod:`repro.core.inference` fits the output
   range and local sensitivity to the sampled neighbours' outputs.
5. **iDP Enforcement** — :mod:`repro.core.range_enforcer` runs
   Algorithm 2, and Laplace noise calibrated to the sensitivity is
   added.

:func:`release` is that sequence, a function of its inputs: the
session-free entry point, and one trial of the mechanism for an
empirical privacy audit.  A submission RANGE ENFORCER refuses leaves it
as :class:`ReleaseRefused`, carrying the fit it was refused under.
:class:`UPASession` calls :func:`release` and keeps what outlives one
release: the accountant, the ledger, the tracer, the replay lookup, the
per-run rng counter and the append/retire window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import EngineConfig
from repro.common.errors import DPError
from repro.common.rng import derive_seed, make_rng
from repro.common.timing import Timer
from repro.core.inference import (
    InferredRange,
    infer_local_sensitivity,
    infer_output_range,
)
from repro.core.query import MapReduceQuery, Tables
from repro.core.range_enforcer import (
    EnforcementRefused, EnforcementResult, RangeEnforcer,
)
from repro.core.sampling import (
    PartitionedSample,
    partition_and_sample,
    protected_records,
)
from repro.core.table import (
    FixedLists, ProtectedTable, TableReads, TableRegistry,
)
from repro.dp.budget import PrivacyAccountant
from repro.dp.mechanisms import LaplaceMechanism
from repro.engine.context import EngineContext
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.ledger import PrivacyLedger, make_entry
from repro.obs.report import run_header
from repro.obs.tracing import NULL_TRACER, Tracer, get_tracer


class _MapFoldSlice:
    """Phase-2 task over one engine slice of S' records.

    The engine hands the task its slice as one
    :class:`~repro.core.sampling.RecordView`; it is mapped through
    ``query.map_batch`` (with the query's aux) and folded with
    ``query.fold_batch``: one partial aggregate per slice, none for an
    empty slice.
    """

    __slots__ = ("query", "aux")

    def __init__(self, query: "MapReduceQuery", aux):
        self.query = query
        self.aux = aux

    def __call__(self, slices):
        query, aux = self.query, self.aux
        return [
            query.fold_batch(query.map_batch(records, aux))
            for records in slices if len(records)
        ]


class _FoldSlice:
    """Phase-2 task over one engine slice of S' that is already mapped.

    The incremental path hands each task its slice as one cached
    ``map_batch`` batch; like :class:`_MapFoldSlice` it yields one
    partial aggregate, none for an empty slice.
    """

    __slots__ = ("query",)

    def __init__(self, query: "MapReduceQuery"):
        self.query = query

    def __call__(self, batches):
        query = self.query
        return [
            query.fold_batch(batch) for batch in batches
            if query.batch_length(batch)
        ]


class _VanillaAux:
    """``run_vanilla``'s aux, read through a property once per record.

    The vanilla mapper has always paid that read (aux used to sit in a
    broadcast wrapper).  ``benchmarks/e2e``'s ``overhead_x`` divides a
    release by this vanilla, so the read stays until that baseline is
    measured again.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    @property
    def value(self):
        return self._value


def _engine_slices(total: int, parts: int) -> List[Tuple[int, int]]:
    """The ``parts`` even [lo, hi) cuts of ``total`` records, in order —
    where ``ParallelCollectionRDD`` would cut them."""
    return [
        (k * total // parts, (k + 1) * total // parts) for k in range(parts)
    ]


def _require_count(value: Any, what: str) -> None:
    """Raise DPError unless ``value`` is an int >= 1 (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DPError(f"{what}, got {value!r}")


@dataclass(frozen=True)
class UPAConfig:
    """Session configuration.

    Attributes:
        epsilon: default privacy budget per query (paper evaluation: 0.1).
        sample_size: n, the number of sampled differing records (1000).
        seed: master seed (sampling, noise, enforcement randomness).
        strict: run ``validate_monoid`` on every submission: a query
            whose mapper or reducer fails it raises QueryShapeError
            before any budget is spent.
        engine_partitions: parallelism for map/reduce jobs per dataset
            partition (an int >= 1).
    """

    epsilon: float = 0.1
    sample_size: int = 1000
    seed: int = 0
    strict: bool = False
    engine_partitions: int = 2

    def __post_init__(self) -> None:
        for name in ("sample_size", "engine_partitions"):
            _require_count(getattr(self, name), f"{name} must be an int >= 1")


@dataclass
class UPAResult:
    """Everything one UPA run produced.

    ``noisy_output`` is what a data analyst receives; all other fields
    exist for evaluation and must not be released under DP.
    """

    noisy_output: np.ndarray
    raw_output: np.ndarray
    plain_output: np.ndarray
    #: range width used to calibrate the mechanism's noise (guaranteed
    #: upper bound after RANGE ENFORCER's clamping).
    local_sensitivity: float
    #: Definition II.1 estimate reported in the Fig. 2(a) comparison.
    estimated_local_sensitivity: float
    #: the Laplace scale b the noise was drawn at:
    #: max(local_sensitivity, noise_floor(query)) / epsilon.
    noise_scale: float
    inferred_range: InferredRange
    removal_outputs: np.ndarray
    addition_outputs: np.ndarray
    partition_outputs: Tuple[np.ndarray, np.ndarray]
    enforcement: EnforcementResult
    epsilon: float
    sample_size: int
    elapsed_seconds: float
    metrics: MetricsSnapshot

    @property
    def neighbour_outputs(self) -> np.ndarray:
        return np.vstack([self.removal_outputs, self.addition_outputs])

    def noisy_scalar(self) -> float:
        return float(np.asarray(self.noisy_output).reshape(-1)[0])


class _PipelineState:
    """What phases 2–3 computed, and the reduce-side state RANGE
    ENFORCER's callbacks mutate.

    ``removal`` / ``addition`` are the sampled neighbours' outputs,
    ``plain`` is f(x), ``population`` the |x| the estimator
    extrapolates to and ``r_sprime`` is R(M(S')); they are fixed once
    :func:`reduce_phase` returns.  ``mapped`` is S's *batch* in the
    query's batched-monoid layout (see
    :class:`~repro.core.query.MapReduceQuery`), which RANGE ENFORCER's
    removals shrink; all folds go through the batched protocol so
    vectorized kernels apply to the enforcement callbacks too.
    """

    def __init__(self, query: MapReduceQuery, aux: Any,
                 r_sprime_parts: List[Any], r_sprime: Any, mapped: Any,
                 sample_partitions: Sequence[int], rng: random.Random, *,
                 removal: np.ndarray, addition: np.ndarray,
                 plain: np.ndarray, population: int):
        self._query = query
        self._aux = aux
        self._r_sprime_parts = r_sprime_parts
        self.r_sprime = r_sprime
        self.mapped = mapped
        self._parts = np.asarray(sample_partitions, dtype=int)
        self._rng = rng
        self.removal = removal
        self.addition = addition
        self.plain = plain
        self.population = population
        #: f(x1), f(x2) over the current samples; None once a removal
        #: has made them stale.
        self._partition_outputs: Optional[
            Tuple[np.ndarray, np.ndarray]
        ] = None

    @property
    def neighbours(self) -> np.ndarray:
        return np.vstack([self.removal, self.addition])

    def _fold_samples_in(self, partition: int) -> Any:
        query = self._query
        indices = np.flatnonzero(self._parts == partition)
        return query.fold_batch(query.batch_select(self.mapped, indices))

    def partition_outputs(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._partition_outputs is None:
            query = self._query
            aggs = [
                query.combine(
                    self._r_sprime_parts[p], self._fold_samples_in(p)
                )
                for p in range(2)
            ]
            outs = query.finalize_batch(query.batch_stack(aggs), self._aux)
            self._partition_outputs = (
                np.asarray(outs[0]), np.asarray(outs[1])
            )
        return self._partition_outputs

    def final_output(self) -> np.ndarray:
        query = self._query
        aggregate = query.combine(self.r_sprime, query.fold_batch(self.mapped))
        return query.finalize(aggregate, self._aux)

    def remove_two_records(self) -> bool:
        query = self._query
        if query.batch_length(self.mapped) < 2:
            return False
        keep = np.arange(query.batch_length(self.mapped))
        for _ in range(2):
            keep = np.delete(keep, self._rng.randrange(len(keep)))
        self._parts = self._parts[keep]
        self.mapped = query.batch_select(self.mapped, keep)
        self._partition_outputs = None
        return True


def reduce_phase(
    query: MapReduceQuery,
    aux: Any,
    sample: PartitionedSample,
    rng: random.Random,
    *,
    engine: EngineContext,
    parts: int,
    tracer: Tracer,
    window: Any = None,
) -> _PipelineState:
    """Phases 2 and 3: Parallel Map and Union Preserving Reduce.

    Each partition's S' is cut into ``parts`` engine slices and mapped
    and folded on ``engine``; S and S-bar are mapped on the driver.
    ``window`` (the append/retire path) is one ``map_batch`` batch of
    every record of the sampled table, in row order, mapped under this
    ``aux``: S' and S are selected from it instead of mapped.  ``rng``
    is not drawn from here: the returned state keeps it for RANGE
    ENFORCER's removals.
    """
    with tracer.span(
        "phase:map", query=query.name,
        records=sum(map(len, sample.remaining_indices)), slices=2 * parts,
    ):
        # Parallel Map + per-partition reduce of S' (ReduceByPar,
        # Alg.1 l.7): each partition's S' is cut into ``parts``
        # slices, the engine gets one element per slice and every
        # slice is one task returning fold_batch(map_batch(slice));
        # aggregate() combines the partials in slice order.
        if window is None:
            task = _MapFoldSlice(query, aux)
            sprime = [
                [part[lo:hi] for lo, hi in _engine_slices(len(part), parts)]
                for part in sample.remaining
            ]
            mapped_s = None
        else:
            # Incremental fast path: S' is taken out of the window
            # exactly as partition_and_sample split the records, in
            # the same slices, so the per-partition aggregates are
            # bitwise equal to a cold run's.  An element does not
            # depend on the batch it was mapped in (DESIGN.md section
            # 5, item 6), so S is selected too rather than mapped.
            task = _FoldSlice(query)
            sprime = [
                [
                    query.batch_select(window, indices[lo:hi])
                    for lo, hi in _engine_slices(len(indices), parts)
                ]
                for indices in sample.remaining_indices
            ]
            mapped_s = query.batch_select(window, sample.sampled_indices)
        r_sprime_parts: List[Any] = [
            engine.parallelize(part, parts)
            .map_partitions(task)
            .aggregate(query.zero(), query.combine, query.combine)
            for part in sprime
        ]
        r_sprime = query.combine(r_sprime_parts[0], r_sprime_parts[1])

        # S and S-bar are small (n records each) and already live on
        # the driver, so they go through the batched mapper directly —
        # one vectorized call instead of an engine round-trip per
        # batch.
        if mapped_s is None:
            mapped_s = query.map_batch(sample.sampled, aux)
        mapped_sbar = query.map_batch(sample.domain_samples, aux)

    with tracer.span("phase:reduce"):
        f_x_agg = query.combine(r_sprime, query.fold_batch(mapped_s))
        plain = query.finalize(f_x_agg, aux)
        # o_i = finalize(R(S') + fold(S - s_i)): the all-but-one folds,
        # the combine with R(S') and the n finalizations all run
        # through the query's batched kernels.
        removal = np.empty((0, query.output_dim))
        if query.batch_length(mapped_s):
            removal = np.asarray(query.finalize_batch(
                query.combine_batch(
                    r_sprime, query.prefix_suffix_batch(mapped_s)
                ),
                aux,
            ), dtype=float)
        addition = np.empty((0, query.output_dim))
        if query.batch_length(mapped_sbar):
            addition = np.asarray(query.finalize_batch(
                query.combine_batch(f_x_agg, mapped_sbar), aux
            ), dtype=float)

    return _PipelineState(
        query, aux, r_sprime_parts, r_sprime, mapped_s,
        sample.sampled_partitions, rng,
        removal=removal, addition=addition, plain=plain,
        population=len(sample.records) + sample.sample_size,
    )


def noise_floor(query: MapReduceQuery) -> float:
    """The least width a release's noise is calibrated to (DESIGN.md §5).

    A count moves by a whole number whenever removing a record moves it
    at all, so a count query is noised as if its width were at least 1,
    even where every sampled neighbour agrees with x and the inferred
    width is 0.  Other queries have no public floor, and their noise
    can still be 0 in principle.
    """
    return 1.0 if getattr(query, "query_type", None) == "count" else 0.0


def add_noise(value: Any, sensitivity: float, epsilon: float,
              seed: int) -> Any:
    """Laplace noise on ``value``, seeded by ``seed``.

    A fresh mechanism per release keeps the noise reproducible from the
    seed alone, whatever was drawn before.
    """
    return LaplaceMechanism(epsilon=epsilon, seed=seed).randomize(
        value, sensitivity
    )


class ReleaseRefused(DPError):
    """RANGE ENFORCER refused a submission: nothing was released.

    It ran out of sampled records separating the submission from a
    prior one.  The refusal carries the fit it was made under —
    ``inferred``, the ``estimated_local_sensitivity`` and the
    ``sample_size`` — and what its removal loop did, as
    :class:`EnforcementRefused` has it: ``records_removed`` and
    ``sweeps``.  A ``refused`` ledger row records all but ``sweeps``.
    """

    def __init__(self, message: str, inferred: InferredRange,
                 estimated_local_sensitivity: float, sample_size: int,
                 records_removed: int, sweeps: int):
        super().__init__(message)
        self.inferred = inferred
        self.estimated_local_sensitivity = estimated_local_sensitivity
        self.sample_size = sample_size
        self.records_removed = records_removed
        self.sweeps = sweeps


def _fit(
    query: MapReduceQuery, tables: Tables, table: ProtectedTable, *,
    seed: int, run: int, sample_size: int, parts: int,
    engine: EngineContext, aux: Any, window: Any = None,
    registered: bool = False, tracer: Tracer = NULL_TRACER,
) -> Tuple[PartitionedSample, _PipelineState, InferredRange, float]:
    """Phases 1-4 of :func:`release`: the sample, the reduce-side
    state, the inferred range and the estimated local sensitivity."""
    rng = make_rng(seed, f"upa-run-{run}")
    with tracer.span(
        "phase:partition_sample", query=query.name, sample_size=sample_size,
    ) as sample_span:
        sample = partition_and_sample(
            query, tables, sample_size, rng, table=table, tracer=tracer,
        )
        sample_span.set_attribute("sampled", sample.sample_size)
        sample_span.set_attribute("incremental", window is not None)
        sample_span.set_attribute("registered", registered)
    state = reduce_phase(
        query, aux, sample, rng, engine=engine, parts=parts, tracer=tracer,
        window=window,
    )
    neighbours = state.neighbours
    with tracer.span("phase:inference") as inference_span:
        inferred = infer_output_range(neighbours, state.population)
        estimated_ls = infer_local_sensitivity(
            neighbours, state.plain, state.population
        )
        inference_span.set_attribute(
            "local_sensitivity", inferred.local_sensitivity
        )
        inference_span.set_attribute(
            "neighbour_outputs", int(neighbours.shape[0])
        )
    return sample, state, inferred, estimated_ls


def release(
    query: MapReduceQuery, tables: Tables, table: ProtectedTable,
    epsilon: float, *, seed: int, run: int, sample_size: int, parts: int,
    enforcer: RangeEnforcer, engine: EngineContext, aux: Any,
    window: Any = None, registered: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> UPAResult:
    """One release of ``query`` over ``table``, the protected list of
    ``tables``: sample, map, reduce, infer, enforce and add noise.

    The sample and RANGE ENFORCER's removals draw from
    ``make_rng(seed, f"upa-run-{run}")`` and the noise is seeded by
    ``derive_seed(seed, f"noise-{run}")``, so the same arguments and an
    ``enforcer`` in the same state give the same bits — what a session
    releases as its ``run``-th.  ``aux`` is ``query.build_aux(tables)``;
    ``window`` (see :func:`reduce_phase`) skips mapping S' and S;
    ``registered`` is only written onto the ``phase:partition_sample``
    span.  ``parts`` is the engine slices per partition.

    RANGE ENFORCER registering the submission is the commit point: a
    refusal raises :class:`ReleaseRefused` and registers nothing, and
    after the registration only the noise draw can fail.
    ``elapsed_seconds`` and ``metrics`` cover this call.
    """
    metrics_before = engine.metrics.mark()
    with Timer() as timer:
        sample, state, inferred, estimated_ls = _fit(
            query, tables, table, seed=seed, run=run,
            sample_size=sample_size, parts=parts, engine=engine, aux=aux,
            window=window, registered=registered, tracer=tracer,
        )
        with tracer.span("phase:noise") as noise_span:
            partition_outputs = state.partition_outputs()
            with tracer.span(
                "phase:enforce", registry=len(enforcer),
            ) as enforce_span:
                try:
                    outcome = enforcer.enforce(state, inferred)
                except EnforcementRefused as exc:
                    enforce_span.set_attribute("refused", True)
                    outcome = exc
                for name in ("matched_prior", "sweeps", "records_removed"):
                    enforce_span.set_attribute(name, getattr(outcome, name))
                if isinstance(outcome, EnforcementRefused):
                    raise ReleaseRefused(
                        str(outcome), inferred, estimated_ls,
                        sample.sample_size, outcome.records_removed,
                        outcome.sweeps,
                    ) from outcome
                enforcement = outcome
            sensitivity = max(inferred.local_sensitivity, noise_floor(query))
            noisy = add_noise(
                enforcement.output, sensitivity, epsilon,
                derive_seed(seed, f"noise-{run}"),
            )
            noise_span.set_attribute("clamped", enforcement.clamped)
            noise_span.set_attribute(
                "records_removed", enforcement.records_removed
            )
    return UPAResult(
        noisy_output=np.asarray(noisy, dtype=float).reshape(-1),
        raw_output=enforcement.output,
        plain_output=state.plain,
        local_sensitivity=inferred.local_sensitivity,
        estimated_local_sensitivity=estimated_ls,
        noise_scale=sensitivity / epsilon,
        inferred_range=inferred,
        removal_outputs=state.removal,
        addition_outputs=state.addition,
        partition_outputs=partition_outputs,
        enforcement=enforcement,
        epsilon=epsilon,
        sample_size=sample.sample_size,
        elapsed_seconds=timer.elapsed,
        metrics=engine.metrics.since(metrics_before),
    )


class _IncrementalState:
    """The mapped window append()/retire() carry between runs.

    One instance describes the *last* submission: which query ran over
    which tables, the registered protected table among them, and
    ``window``, one ``map_batch`` batch holding the elements of the
    table's first rows, in order.  The per-run sample S is redrawn
    every release, so per-partition *aggregates* are never reusable —
    the window instead holds the mapped elements and replays the
    identical fold, which is what makes an incremental release
    bitwise-equal to a cold one.
    """

    __slots__ = ("query", "tables", "table", "primed", "aux", "window")

    def __init__(
        self,
        query: MapReduceQuery,
        tables: Tables,
        table: ProtectedTable,
    ):
        self.query = query
        self.tables = tables
        self.table = table
        #: set by the first append()/retire(); plain repeated run()
        #: calls stay on the cold path so their cost profile is
        #: unchanged.
        self.primed = False
        #: the aux the window was mapped under.
        self.aux: Any = None
        #: elements of ``table.rows[:n]`` (one batch), or None.
        self.window: Any = None

    def matches(self, query: MapReduceQuery, tables: Tables,
                table: ProtectedTable) -> bool:
        """True iff the window still describes the submission."""
        return (
            query is self.query
            and tables is self.tables
            and table is self.table
        )


class UPASession:
    """Runs queries under epsilon-iDP with automatically inferred sensitivity.

    Example:
        >>> from repro.tpch import TPCHConfig, TPCHGenerator, query_by_name
        >>> tables = TPCHGenerator(TPCHConfig(scale_rows=2000)).generate()
        >>> session = UPASession()
        >>> result = session.run(query_by_name("tpch1"), tables, epsilon=0.5)
        >>> result.local_sensitivity >= 0
        True
    """

    def __init__(
        self,
        config: Optional[UPAConfig] = None,
        engine: Optional[EngineContext] = None,
        enforcer: Optional[RangeEnforcer] = None,
        accountant: Optional[PrivacyAccountant] = None,
        tracer: Optional[Tracer] = None,
        ledger: Optional[PrivacyLedger] = None,
    ):
        self.config = config or UPAConfig()
        self.engine = engine or EngineContext(
            EngineConfig(default_parallelism=self.config.engine_partitions)
        )
        # Explicit None check: an empty RangeEnforcer is falsy (__len__),
        # and a caller-supplied registry must never be silently replaced.
        if enforcer is None:
            enforcer = RangeEnforcer(
                rng=make_rng(self.config.seed, "range-enforcer")
            )
        self.enforcer = enforcer
        self.accountant = accountant
        #: None = follow the ambient tracer (repro.obs.tracing.get_tracer),
        #: so `with use_tracer(t):` observes existing sessions too.
        self._tracer = tracer
        #: privacy audit ledger; None = no auditing.
        self.ledger = ledger
        self._run_counter = 0
        #: the protected tables already seen, with their public-side aux
        #: and the releases made from them.
        self._tables = TableRegistry()
        #: last-run bookkeeping backing append()/retire(); None until
        #: the first run() completes.
        self._incr: Optional[_IncrementalState] = None

    @property
    def tracer(self) -> Tracer:
        """The effective tracer: explicit if given, else the ambient one."""
        return self._tracer if self._tracer is not None else get_tracer()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        query: MapReduceQuery,
        tables: Tables,
        epsilon: Optional[float] = None,
    ) -> UPAResult:
        """Answer ``query`` on ``tables`` under epsilon-iDP.

        A submission identical to an earlier release — the same query
        object (``plan_fingerprint`` for compiled SQL), the same
        epsilon, the same protected content and public tables equal to
        the ones that release read — gets that release's
        :class:`UPAResult` back.  The replay is post-processing: it
        charges nothing and leaves RANGE ENFORCER, the sampler and the
        per-run rng as they were (DESIGN.md section 5, item 10).
        """
        epsilon = epsilon if epsilon is not None else self.config.epsilon
        if epsilon <= 0 or not math.isfinite(epsilon):
            raise DPError(
                f"epsilon must be positive and finite, got {epsilon}"
            )
        # A refused submission must cost nothing: the table is checked
        # before the accountant is charged.
        records = protected_records(query, tables)
        if self.config.strict:
            query.validate_monoid(tables)
        tracer = self.tracer
        if tracer.enabled and self.engine.tracer is NULL_TRACER:
            # Auto-wire the engine (its engine.job spans) so
            # one tracer sees the pipeline end to end.
            self.engine.install_tracer(tracer)
        with tracer.span(
            "upa.run", query=query.name, epsilon=epsilon,
            sample_size=self.config.sample_size,
        ) as run_span:
            # The release's one registry lookup: the replay is found by
            # the table's stored fingerprints.
            table, registered = self._lookup(records)
            replayed = self._tables.replay(query, tables, table, epsilon)
            run_span.set_attribute("replayed", replayed is not None)
            if replayed is None:
                return self._release(query, tables, epsilon, table, registered)
            self.engine.metrics.incr(MetricsRegistry.RELEASE_REPLAYS)
            # Like a release, a replay moves the append cursor.
            self._remember_run(query, tables, table)
            self._record_ledger(
                query, replayed, epsilon_charged=0.0, cache_hit=True,
            )
            return replayed

    def _release(
        self,
        query: MapReduceQuery,
        tables: Tables,
        epsilon: float,
        table: ProtectedTable,
        registered: bool,
    ) -> UPAResult:
        """A fresh release of a submission :meth:`run` found no replay
        for, from the session's ``table`` of its protected list: the
        bookkeeping around one :func:`release`."""
        config = self.config
        metrics = self.engine.metrics
        if self.accountant is not None:
            # Only asked here; the charge lands once the release is
            # certain, below, so a submission that fails or that RANGE
            # ENFORCER refuses is free.
            self.accountant.require(epsilon)

        metrics_before = metrics.mark()
        with Timer() as timer:
            self._run_counter += 1
            # Besides the protected table and aux, a release depends on
            # what the sampler reads.
            reads = TableReads(tables)
            aux, aux_read, aux_public = self._aux(query, tables)
            window = self._window(query, tables, table, aux, aux_public)
            try:
                result = release(
                    query, reads, table, epsilon,
                    seed=config.seed, run=self._run_counter,
                    sample_size=config.sample_size,
                    parts=config.engine_partitions,
                    enforcer=self.enforcer, engine=self.engine, aux=aux,
                    window=window, registered=registered, tracer=self.tracer,
                )
            except ReleaseRefused as refusal:
                # A refusal is an outcome like a release: it is logged
                # (at zero epsilon) and the append cursor follows it.
                self._remember_run(query, tables, table)
                self._record_refusal(query, refusal)
                raise
        # The aux lookup and the window upkeep count in the release.
        result.elapsed_seconds = timer.elapsed
        result.metrics = metrics.since(metrics_before)
        # The release is certain: charge it, move the append cursor,
        # keep it for replay and log it together.
        if self.accountant is not None:
            self.accountant.charge(epsilon, label=query.name)
        self._remember_run(query, tables, table)
        self._tables.keep(query, reads, aux_read, table, epsilon, result)
        self._record_ledger(
            query, result, epsilon_charged=epsilon, cache_hit=False,
        )
        return result

    def append(
        self,
        records: List[Any],
        epsilon: Optional[float] = None,
    ) -> UPAResult:
        """Grow the last run's protected table and release a new answer.

        The appended records are added to the table submitted to the
        previous :meth:`run` (whether it released, replayed or was
        refused) and the same query is answered again over
        the grown dataset.  This is a *new release*: it charges a fresh
        ``epsilon`` through the accountant and ledger exactly like a
        cold run, and under fixed seeds the output is bitwise identical
        to re-running the query cold over the grown table.  What the
        incremental path saves is recomputation — cached content-hash
        partition ids and the mapped window mean only the appended
        records are fingerprinted and mapped (when ``build_aux`` read no
        protected row; otherwise every element is mapped again).
        """
        incr = self._require_incremental("append")
        new_records = list(records)
        if not new_records:
            raise DPError("append() needs at least one record")
        self._tables.append(incr.table, new_records)
        incr.primed = True
        return self.run(incr.query, incr.tables, epsilon)

    def retire(
        self,
        count: int,
        epsilon: Optional[float] = None,
    ) -> UPAResult:
        """Drop the ``count`` oldest records (sliding window) and release.

        The complement of :meth:`append`: the oldest ``count`` records
        leave the protected table and the query is answered again over
        the shrunk dataset, charging a fresh ``epsilon`` per release.
        The mapped window loses the same head, so nothing is remapped.
        """
        _require_count(count, "retire() count must be a positive int")
        incr = self._require_incremental("retire")
        if count >= len(incr.table.rows):
            raise DPError(
                f"retire({count}) would empty the protected table "
                f"({len(incr.table.rows)} records)"
            )
        self._tables.retire(incr.table, count)
        if incr.window is not None:
            incr.window = incr.query.batch_select(
                incr.window,
                range(count, incr.query.batch_length(incr.window)),
            )
        incr.primed = True
        return self.run(incr.query, incr.tables, epsilon)

    def _require_incremental(self, op: str) -> "_IncrementalState":
        incr = self._incr
        if incr is None:
            raise DPError(
                f"{op}() requires a completed run() on this session first"
            )
        if not incr.table.matches(
            incr.tables.get(incr.query.protected_table)
        ):
            raise DPError(
                f"{op}(): the protected table changed outside "
                "append()/retire(); submit it through run() again"
            )
        return incr

    def _record_ledger(
        self,
        query: MapReduceQuery,
        result: UPAResult,
        *,
        epsilon_charged: float,
        cache_hit: bool,
    ) -> None:
        """Append one audit entry for a release (or its replay)."""
        enforcement = result.enforcement
        self._append_ledger(
            query, result.inferred_range,
            epsilon_charged=epsilon_charged,
            sample_size=result.sample_size,
            local_sensitivity=result.local_sensitivity,
            estimated_local_sensitivity=result.estimated_local_sensitivity,
            noise_scale=result.noise_scale,
            clamped=enforcement.clamped,
            matched_prior=enforcement.matched_prior,
            records_removed=enforcement.records_removed,
            cache_hit=cache_hit,
            elapsed_seconds=result.elapsed_seconds,
        )

    def _record_refusal(
        self, query: MapReduceQuery, refusal: ReleaseRefused,
    ) -> None:
        """Append the audit entry of a submission RANGE ENFORCER refused.

        It ran out of sampled records separating the submission from a
        prior one (so a prior matched); nothing was released, nothing
        is charged, and the row carries the fit the refusal was made
        under and the records its removal loop took out.
        """
        inferred = refusal.inferred
        self._append_ledger(
            query, inferred,
            epsilon_charged=0.0,
            sample_size=refusal.sample_size,
            local_sensitivity=inferred.local_sensitivity,
            estimated_local_sensitivity=refusal.estimated_local_sensitivity,
            clamped=False,
            matched_prior=True,
            records_removed=refusal.records_removed,
            refused=True,
        )

    def _append_ledger(
        self,
        query: MapReduceQuery,
        inferred: InferredRange,
        **fields: Any,
    ) -> None:
        """Append one ledger entry (and fill an empty header once)."""
        ledger = self.ledger
        if ledger is None:
            return
        ledger.ensure_header(run_header(
            epsilon=self.config.epsilon,
            sample_size=self.config.sample_size,
            seed=self.config.seed,
            mechanism="laplace",
        ))
        spent = remaining = None
        if self.accountant is not None:
            spent = float(self.accountant.spent()[0])
            remaining = float(self.accountant.remaining_epsilon())
        ledger.append(make_entry(
            sequence=ledger.next_sequence(),
            query=query.name,
            delta=0.0,
            mechanism="laplace",
            mean=inferred.mean,
            std=inferred.std,
            lower=inferred.lower,
            upper=inferred.upper,
            accountant_spent_epsilon=spent,
            accountant_remaining_epsilon=remaining,
            **fields,
        ))

    def run_sql(
        self,
        sql_text: str,
        tables: Tables,
        protected_table: str,
        epsilon: Optional[float] = None,
        domain_sampler=None,
    ) -> UPAResult:
        """Answer a SQL counting/sum query under epsilon-iDP.

        The query text is parsed, checked for linearity in
        ``protected_table``, compiled into a Mapper/Reducer form by
        :mod:`repro.core.sqlbridge`, and run through the ordinary
        pipeline — the paper's "no query modification" workflow.
        """
        from repro.core.sqlbridge import compile_sql

        query = compile_sql(
            sql_text, tables, protected_table, domain_sampler=domain_sampler,
            engine=self.engine,
        )
        return self.run(query, tables, epsilon)

    def run_vanilla(self, query: MapReduceQuery, tables: Tables
                    ) -> Tuple[np.ndarray, float]:
        """Evaluate the query on the engine with no privacy machinery.

        The Fig. 2(b)/4 baselines normalize UPA's time against this.
        """
        with Timer() as timer:
            aux = query.build_aux(tables)
            rdd = self.engine.parallelize(
                tables[query.protected_table],
                max(2, self.config.engine_partitions),
            )
            agg = rdd.map(
                lambda r, _q=query, _a=_VanillaAux(aux):
                _q.map_record(r, _a.value)
            ).aggregate(query.zero(), query.combine, query.combine)
            output = query.finalize(agg, aux)
        return output, timer.elapsed

    def infer_sensitivity(
        self, query: MapReduceQuery, tables: Tables
    ) -> InferredRange:
        """Sensitivity inference only: phases 1-4 of :func:`release`.

        Used by the accuracy benchmarks; does not register the query
        with RANGE ENFORCER and spends no budget.  It draws the per-run
        rng like a release does.
        """
        config = self.config
        table, registered = self._lookup(protected_records(query, tables))
        self._run_counter += 1
        return _fit(
            query, tables, table, seed=config.seed, run=self._run_counter,
            sample_size=config.sample_size, parts=config.engine_partitions,
            engine=self.engine, aux=self._aux(query, tables)[0],
            registered=registered, tracer=self.tracer,
        )[2]

    def _lookup(self, records: List[Any]) -> Tuple[ProtectedTable, bool]:
        """The session's table of ``records`` and whether it was already
        registered — the one find-or-register of a release."""
        with self.tracer.span("sampling.fingerprint"):
            table, registered = self._tables.lookup(records)
        self.engine.metrics.incr(
            MetricsRegistry.TABLE_REUSES if registered
            else MetricsRegistry.TABLE_REGISTRATIONS
        )
        return table, registered

    def _aux(self, query: MapReduceQuery,
             tables: Tables) -> Tuple[Any, FixedLists, bool]:
        """``query``'s aux over ``tables``, kept per the public tables
        it read, those tables as they were read, and whether it read
        only public tables."""
        aux, read, kept, public = self._tables.aux(query, tables)
        if kept:
            self.engine.metrics.incr(MetricsRegistry.AUX_REUSES)
        return aux, read, public

    def _remember_run(
        self, query: MapReduceQuery, tables: Tables, table: ProtectedTable,
    ) -> None:
        """Refresh append()/retire() bookkeeping after a release.

        A matching cursor continues; anything else — first run, new
        query, new tables, a table registered afresh — replaces it and
        its mapped window.
        """
        incr = self._incr
        if incr is None or not incr.matches(query, tables, table):
            self._incr = _IncrementalState(query, tables, table)

    def _window(
        self,
        query: MapReduceQuery,
        tables: Tables,
        table: ProtectedTable,
        aux: Any,
        cacheable: bool,
    ) -> Any:
        """The mapped window of ``table.rows`` an append()/retire()
        release folds, or None for a cold release.

        A release continues the window when the cursor is primed and
        still describes the submission; only the rows past the
        window's tail are mapped.  The window is kept only when
        ``cacheable`` (aux read no protected row) and was mapped under
        this same ``aux``.  Otherwise (old elements may be wrong under
        the new aux) every record is mapped each release, which still
        yields the bitwise-identical answer, just without the speedup.
        """
        incr = self._incr
        if not (
            incr is not None and incr.primed
            and incr.matches(query, tables, table)
        ):
            return None
        metrics = self.engine.metrics
        with self.tracer.span(
            "phase:incremental_delta", query=query.name,
        ) as delta_span:
            records = table.rows
            total = len(records)
            window = incr.window if cacheable and incr.aux is aux else None
            reused = 0 if window is None else query.batch_length(window)
            mapped = total - reused
            if mapped:
                fresh = query.map_batch(records[reused:], aux)
                window = fresh if window is None else query.batch_concat(
                    [window, fresh]
                )
            incr.window, incr.aux = (
                (window, aux) if cacheable else (None, None)
            )
            metrics.incr(MetricsRegistry.INCR_RECORDS_REUSED, reused)
            metrics.incr(MetricsRegistry.INCR_RECORDS_MAPPED, mapped)
            delta_span.set_attribute("records_reused", reused)
            delta_span.set_attribute("records_mapped", mapped)
            delta_span.set_attribute(
                "delta_fraction", mapped / total if total else 0.0
            )
        return window
