"""UPASession: the end-to-end UPA pipeline (paper Figure 1).

One ``run()`` executes the four phases:

1. **Partition & Sample** — :mod:`repro.core.sampling`.
2. **Parallel Map** — the query's mapper applied to S, S-bar and S'
   on the MapReduce engine.
3. **Union Preserving Reduce** — ``R(M(S'))`` is computed once per
   partition and *reused* for every sampled neighbouring dataset:
   removal neighbours come from prefix/suffix folds over the n mapped
   samples (O(n) combines total instead of O(n * |x|)); addition
   neighbours combine one extra mapped record with f(x)'s aggregate.
4. **iDP Enforcement** — :mod:`repro.core.inference` fits the output
   range and local sensitivity; :mod:`repro.core.range_enforcer` runs
   Algorithm 2; Laplace (or, optionally, Gaussian) noise calibrated to
   the sensitivity is added.

Phases 2–3 (:func:`reduce_phase`) and the noise draw
(:func:`add_noise`) are functions of their inputs, so a release can be
run without a session: ``partition_and_sample → reduce_phase →
infer_output_range / infer_local_sensitivity → RangeEnforcer.enforce →
add_noise``.  :class:`UPASession` calls them in that order and keeps
what outlives one release: the accountant, the ledger, the tracer, the
replay lookup, the per-run rng counter and the append/retire cursor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import EngineConfig
from repro.common.errors import DPError
from repro.common.rng import derive_seed, make_rng
from repro.common.timing import Timer
from repro.core.inference import (
    InferenceConfig,
    InferredRange,
    infer_local_sensitivity,
    infer_output_range,
)
from repro.core.query import MapReduceQuery, Tables
from repro.core.range_enforcer import EnforcementResult, RangeEnforcer
from repro.core.sampling import (
    PartitionedSample,
    partition_and_sample,
    protected_records,
)
from repro.core.table import ProtectedTable, TableRegistry
from repro.dp.budget import PrivacyAccountant
from repro.dp.mechanisms import GaussianMechanism, LaplaceMechanism
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
        inference: sensitivity-inference knobs.
        strict: the full pre-registration gate — runs validate_monoid
            on every submission and the upalint purity pass
            (repro.staticcheck) the first time each query class is
            submitted; error-severity diagnostics raise
            StaticAnalysisError before any budget is spent.
        engine_partitions: parallelism for map/reduce jobs per dataset
            partition (an int >= 1).
    """

    epsilon: float = 0.1
    sample_size: int = 1000
    seed: int = 0
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    strict: bool = False
    engine_partitions: int = 2
    #: 'laplace' (paper) or 'gaussian' ((eps, delta)-DP extension; the
    #: L1 range width is used as a conservative L2 bound).
    mechanism: str = "laplace"
    #: delta for the Gaussian mechanism.
    delta: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("sample_size", "engine_partitions"):
            _require_count(getattr(self, name), f"{name} must be an int >= 1")
        if self.mechanism not in ("laplace", "gaussian"):
            raise DPError(f"unknown mechanism {self.mechanism!r}")


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
    premapped: Optional[Tuple[Tuple[List[Any], List[Any]], Any]] = None,
) -> _PipelineState:
    """Phases 2 and 3: Parallel Map and Union Preserving Reduce.

    Each partition's S' is cut into ``parts`` engine slices and mapped
    and folded on ``engine``; S and S-bar are mapped on the driver.
    ``premapped`` (the append/retire path) hands over S' already cut
    into those slices as ``map_batch`` batches, and S's batch.  ``rng``
    is not drawn from here: the returned state keeps it for RANGE
    ENFORCER's removals.
    """
    metrics = engine.metrics
    with tracer.span(
        "phase:map", query=query.name,
        records=sum(map(len, sample.remaining_indices)), slices=2 * parts,
    ):
        # Parallel Map + per-partition reduce of S' (ReduceByPar,
        # Alg.1 l.7): each partition's S' is cut into ``parts``
        # slices, the engine gets one element per slice and every
        # slice is one task returning fold_batch(map_batch(slice));
        # aggregate() combines the partials in slice order.
        if premapped is None:
            task = _MapFoldSlice(query, aux)
            sprime = [
                [part[lo:hi] for lo, hi in _engine_slices(len(part), parts)]
                for part in sample.remaining
            ]
            mapped_s = None
        else:
            # Incremental fast path: S' and S are already mapped
            # (cached blocks), S' cut at the same boundaries, one batch
            # per engine partition, so the per-partition aggregates are
            # bitwise equal to a cold run's.
            task = _FoldSlice(query)
            sprime, mapped_s = premapped
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
    metrics.observe(
        MetricsRegistry.NEIGHBOUR_BATCH, query.batch_length(mapped_s)
    )
    metrics.observe(
        MetricsRegistry.NEIGHBOUR_BATCH, query.batch_length(mapped_sbar)
    )

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


def add_noise(value: Any, sensitivity: float, epsilon: float,
              config: UPAConfig, seed: int) -> Any:
    """Noise ``value`` with ``config``'s mechanism, seeded by ``seed``.

    A fresh mechanism per release keeps the noise reproducible from the
    seed alone, whatever was drawn before.
    """
    if config.mechanism == "gaussian":
        mechanism = GaussianMechanism(
            epsilon=epsilon, delta=config.delta, seed=seed
        )
    else:
        mechanism = LaplaceMechanism(epsilon=epsilon, seed=seed)
    return mechanism.randomize(value, sensitivity)


#: records per cached ``map_batch`` block.  Blocks use *absolute* record
#: indexing (index since the session first saw the table), so retire()
#: — a prefix deletion — leaves every untouched block addressable and
#: only boundary blocks are remapped.
_INCR_BLOCK_RECORDS = 4096


class _IncrementalState:
    """The block-store cursor append()/retire() carry between runs.

    One instance describes the *last* submission: which query ran over
    which tables, the registered protected table among them, and the
    block-store namespace holding the cached ``map_batch`` blocks.  The
    per-run sample S is redrawn every release, so per-partition
    *aggregates* are never reusable — the cache instead holds the
    mapped elements and replays the identical fold, which is what makes
    an incremental release bitwise-equal to a cold one.
    """

    __slots__ = (
        "query", "tables", "table", "base_offset", "cache_rdd_id",
        "stop_generation", "block_records", "primed",
    )

    def __init__(
        self,
        query: MapReduceQuery,
        tables: Tables,
        table: ProtectedTable,
        cache_rdd_id: int,
    ):
        self.query = query
        self.tables = tables
        self.table = table
        #: absolute index of the table's first row (grows with every
        #: retire()).
        self.base_offset = 0
        self.cache_rdd_id = cache_rdd_id
        #: engine stop generation the blocks were written under; a
        #: stop() since (which dropped them) counts an invalidation.
        self.stop_generation: Optional[int] = None
        self.block_records = _INCR_BLOCK_RECORDS
        #: set by the first append()/retire(); plain repeated run()
        #: calls stay on the cold path so their cost profile is
        #: unchanged.
        self.primed = False

    def matches(self, query: MapReduceQuery, tables: Tables,
                table: ProtectedTable) -> bool:
        """True iff the blocks still describe the submission."""
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
        #: stats of the last release's incremental phase (None when the
        #: release ran cold); surfaced through the ledger header.
        self._last_incremental: Optional[dict] = None
        #: query classes already cleared by the strict-mode static gate.
        self._lint_cleared: set = set()
        #: alert engine wired by serve() (or attach_alerts()); None
        #: until then.
        self.alert_engine = None
        #: live introspection server, if serve() started one.
        self.obs_server = None

    @property
    def tracer(self) -> Tracer:
        """The effective tracer: explicit if given, else the ambient one."""
        return self._tracer if self._tracer is not None else get_tracer()

    def attach_alerts(self, engine=None):
        """Wire an alert engine to this session's ledger and accountant.

        With no argument, builds one over the default rules (budget
        burn rate, sensitivity drift, clamp rate).  Firings then land
        in the ledger header, the live ``/healthz`` endpoint, and the
        CLI's exit summary.  Idempotent: a second call returns the
        already-attached engine.
        """
        from repro.obs.alerts import AlertEngine

        if self.alert_engine is not None:
            return self.alert_engine
        if engine is None:
            engine = AlertEngine(accountant=self.accountant)
        elif engine.accountant is None:
            engine.accountant = self.accountant
        if self.ledger is not None:
            engine.attach(self.ledger)
        self.alert_engine = engine
        return engine

    def serve(self, port: int = 0, host: str = "127.0.0.1",
              alerts: bool = True):
        """Start live monitoring endpoints over this session.

        Wires everything the session owns — engine metrics, the
        effective tracer, the privacy ledger, the accountant and an
        alert engine (built via :meth:`attach_alerts` unless ``alerts``
        is False) — into one
        :class:`~repro.obs.server.ObservabilityServer`.  ``port=0``
        binds an ephemeral port; read ``.url`` off the returned server.
        Stop it with ``session.obs_server.stop()`` (or let the daemon
        thread die with the process).
        """
        if self.obs_server is not None:
            return self.obs_server
        engine = self.attach_alerts() if alerts else None
        tracer = self.tracer
        self.obs_server = self.engine.serve(
            port=port, host=host,
            tracer=tracer if tracer is not NULL_TRACER else None,
            ledger=self.ledger,
            accountants=(
                {"session": self.accountant}
                if self.accountant is not None else None
            ),
            alerts=engine,
        )
        return self.obs_server

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
        if self.config.mechanism == "gaussian":
            GaussianMechanism.check_parameters(epsilon, self.config.delta)
        # A refused submission must cost nothing: the table is checked
        # before the accountant is charged.
        records = protected_records(query, tables)
        if self.config.strict:
            self._static_gate(query)
            query.validate_monoid(tables)
        tracer = self.tracer
        if tracer.enabled and self.engine.tracer is NULL_TRACER:
            # Auto-wire the engine (scheduler spans + job listener) so
            # one tracer sees the pipeline end to end.
            self.engine.install_tracer(tracer)
        self._last_incremental = None
        with tracer.span(
            "upa.run", query=query.name, epsilon=epsilon,
            sample_size=self.config.sample_size,
            mechanism=self.config.mechanism,
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
                query, replayed, epsilon_charged=0.0, delta=0.0,
                cache_hit=True,
            )
            self._observe_release(replayed, 0.0, cache_hit=True)
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
        phase functions in order."""
        config = self.config
        tracer = self.tracer
        metrics = self.engine.metrics
        delta = config.delta if config.mechanism == "gaussian" else 0.0
        if self.accountant is not None:
            # Only asked here; the charge lands once the release is
            # certain, below, so a submission that fails or that RANGE
            # ENFORCER refuses is free.
            self.accountant.require(epsilon, delta=delta)

        metrics_before = metrics.mark()

        with Timer() as timer:
            self._run_counter += 1
            rng = make_rng(config.seed, f"upa-run-{self._run_counter}")
            with tracer.span(
                "phase:partition_sample", query=query.name,
                sample_size=config.sample_size,
            ) as sample_span:
                incr = self._incr
                primed = incr is not None and incr.primed
                use_incr = primed and incr.matches(query, tables, table)
                if primed and not use_incr:
                    # The cached state no longer describes this
                    # submission (different query or externally mutated
                    # table): run cold and rebuild below.
                    metrics.incr(MetricsRegistry.INCR_INVALIDATIONS)
                sample = partition_and_sample(
                    query, tables, config.sample_size, rng,
                    table=table, tracer=tracer,
                )
                sample_span.set_attribute("sampled", sample.sample_size)
                sample_span.set_attribute("incremental", use_incr)
                sample_span.set_attribute("registered", registered)
            aux = self._aux(query, tables)
            premapped = None
            if use_incr:
                with tracer.span(
                    "phase:incremental_delta", query=query.name,
                ) as delta_span:
                    premapped, stats = self._incremental_elements(
                        incr, query, aux, sample
                    )
                    self._last_incremental = stats
                    for key, value in stats.items():
                        delta_span.set_attribute(key, value)
            state = reduce_phase(
                query, aux, sample, rng, engine=self.engine,
                parts=config.engine_partitions, tracer=tracer,
                premapped=premapped,
            )
            neighbours = state.neighbours
            with tracer.span("phase:inference") as inference_span:
                inferred = infer_output_range(
                    neighbours, state.population, config.inference
                )
                estimated_ls = infer_local_sensitivity(
                    neighbours, state.plain, state.population,
                    config.inference,
                )
                inference_span.set_attribute(
                    "local_sensitivity", inferred.local_sensitivity
                )
                inference_span.set_attribute(
                    "neighbour_outputs", int(neighbours.shape[0])
                )
            with tracer.span("phase:noise") as noise_span:
                partition_outputs = state.partition_outputs()
                with tracer.span(
                    "phase:enforce", registry=len(self.enforcer),
                ) as enforce_span:
                    try:
                        enforcement = self.enforcer.enforce(state, inferred)
                    except DPError:
                        # A refusal is an outcome like a release: it is
                        # logged (at zero epsilon) and the append cursor
                        # follows it.
                        self._remember_run(query, tables, table)
                        self._record_refusal(
                            query, inferred, estimated_ls, sample.sample_size,
                        )
                        raise
                    enforce_span.set_attribute(
                        "matched_prior", enforcement.matched_prior
                    )
                    enforce_span.set_attribute("sweeps", enforcement.sweeps)
                    enforce_span.set_attribute(
                        "records_removed", enforcement.records_removed
                    )
                # The commit point: RANGE ENFORCER has registered the
                # submission.  Only the noise draw can fail after it,
                # and it runs before epsilon is charged.
                noisy = add_noise(
                    enforcement.output, inferred.local_sensitivity, epsilon,
                    config,
                    derive_seed(config.seed, f"noise-{self._run_counter}"),
                )
                noise_span.set_attribute("clamped", enforcement.clamped)
                noise_span.set_attribute(
                    "records_removed", enforcement.records_removed
                )

        result = UPAResult(
            noisy_output=np.asarray(noisy, dtype=float).reshape(-1),
            raw_output=enforcement.output,
            plain_output=state.plain,
            local_sensitivity=inferred.local_sensitivity,
            estimated_local_sensitivity=estimated_ls,
            inferred_range=inferred,
            removal_outputs=state.removal,
            addition_outputs=state.addition,
            partition_outputs=partition_outputs,
            enforcement=enforcement,
            epsilon=epsilon,
            sample_size=sample.sample_size,
            elapsed_seconds=timer.elapsed,
            metrics=metrics.since(metrics_before),
        )
        # The release is certain: charge it, move the append cursor,
        # keep it for replay and log it together.
        if self.accountant is not None:
            self.accountant.charge(epsilon, delta=delta, label=query.name)
        self._remember_run(query, tables, table)
        self._tables.keep(query, tables, table, epsilon, result)
        self._record_ledger(
            query, result, epsilon_charged=epsilon, delta=delta,
            cache_hit=False,
        )
        self._observe_release(result, epsilon, cache_hit=False)
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
        partition ids and ``map_batch`` blocks mean only the appended
        records are fingerprinted and mapped (for queries with
        ``incremental_safe``; others recompute elements but still skip
        nothing else of the pipeline).
        """
        incr = self._require_incremental("append")
        new_records = list(records)
        if not new_records:
            raise DPError("append() needs at least one record")
        self._tables.append(incr.table, new_records)
        incr.primed = True
        self.engine.metrics.incr(MetricsRegistry.INCR_APPENDS)
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
        Element blocks use absolute indexing, so only the block
        straddling the new window start is remapped.
        """
        _require_count(count, "retire() count must be a positive int")
        incr = self._require_incremental("retire")
        if count >= len(incr.table.rows):
            raise DPError(
                f"retire({count}) would empty the protected table "
                f"({len(incr.table.rows)} records)"
            )
        self._tables.retire(incr.table, count)
        incr.base_offset += count
        incr.primed = True
        self.engine.metrics.incr(MetricsRegistry.INCR_RETIRES)
        return self.run(incr.query, incr.tables, epsilon)

    def _observe_release(
        self,
        result: UPAResult,
        epsilon_charged: float,
        *,
        cache_hit: bool,
    ) -> None:
        """Fold one release into the metric registry.

        Runs after the result (and its per-run metrics diff) is fully
        built, so these counters never appear inside a run's own
        ``result.metrics`` window; ``/metrics`` exports them.
        Pure observation: nothing here touches the RNG or the pipeline,
        so DP outputs are bitwise identical with or without it.
        """
        metrics = self.engine.metrics
        metrics.incr(MetricsRegistry.RELEASES)
        if epsilon_charged > 0:
            metrics.incr(MetricsRegistry.RELEASE_EPSILON, epsilon_charged)
        if not cache_hit:
            enforcement = result.enforcement
            if enforcement.clamped:
                metrics.incr(MetricsRegistry.RELEASE_CLAMPS)
            if enforcement.records_removed:
                metrics.incr(
                    MetricsRegistry.RELEASE_RECORDS_REMOVED,
                    float(enforcement.records_removed),
                )
            metrics.set_gauge(
                MetricsRegistry.RELEASE_SENSITIVITY,
                result.local_sensitivity,
            )
        if self.accountant is not None:
            metrics.set_gauge(
                MetricsRegistry.BUDGET_REMAINING,
                float(self.accountant.remaining_epsilon()),
            )
            metrics.set_gauge(
                MetricsRegistry.BUDGET_SPENT,
                float(self.accountant.spent()[0]),
            )

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
        delta: float,
        cache_hit: bool,
    ) -> None:
        """Append one audit entry for a release (or its replay)."""
        enforcement = result.enforcement
        self._append_ledger(
            query, result.inferred_range,
            epsilon_charged=epsilon_charged,
            delta=delta,
            sample_size=result.sample_size,
            local_sensitivity=result.local_sensitivity,
            estimated_local_sensitivity=result.estimated_local_sensitivity,
            clamped=enforcement.clamped,
            matched_prior=enforcement.matched_prior,
            records_removed=enforcement.records_removed,
            cache_hit=cache_hit,
            elapsed_seconds=result.elapsed_seconds,
        )

    def _record_refusal(
        self,
        query: MapReduceQuery,
        inferred: InferredRange,
        estimated_ls: float,
        sample_size: int,
    ) -> None:
        """Append the audit entry of a submission RANGE ENFORCER refused.

        It ran out of sampled records separating the submission from a
        prior one (so a prior matched); nothing was released, nothing
        is charged, and the row carries the fit the refusal was made
        under.
        """
        self._append_ledger(
            query, inferred,
            epsilon_charged=0.0,
            delta=0.0,
            sample_size=sample_size,
            local_sensitivity=inferred.local_sensitivity,
            estimated_local_sensitivity=estimated_ls,
            clamped=False,
            matched_prior=True,
            records_removed=0,
            refused=True,
        )

    def _append_ledger(
        self,
        query: MapReduceQuery,
        inferred: InferredRange,
        **fields: Any,
    ) -> None:
        """Refresh the ledger header and append one entry."""
        ledger = self.ledger
        if ledger is None:
            return
        metrics = self.engine.metrics
        ledger.ensure_header(run_header(
            epsilon=self.config.epsilon,
            sample_size=self.config.sample_size,
            seed=self.config.seed,
            mechanism=self.config.mechanism,
        ))
        # The CLI pre-fills the header at construction, so these
        # counters must be refreshed on every release, not ensure'd.
        # sql_plan_cache_* count the SQL bridge's compile cache.
        incremental = self._last_incremental
        ledger.update_header(
            sql_plan_cache_hits=int(
                metrics.get(MetricsRegistry.SQL_PLAN_CACHE_HITS)
            ),
            sql_plan_cache_misses=int(
                metrics.get(MetricsRegistry.SQL_PLAN_CACHE_MISSES)
            ),
            sql_plan_cache_evictions=int(
                metrics.get(MetricsRegistry.SQL_PLAN_CACHE_EVICTIONS)
            ),
            incremental=incremental is not None,
            incremental_blocks_reused=(
                int(incremental["blocks_reused"]) if incremental else 0
            ),
            incremental_partitions_recomputed=(
                int(incremental["blocks_recomputed"]) if incremental else 0
            ),
            incremental_delta_fraction=(
                float(incremental["delta_fraction"]) if incremental else 0.0
            ),
        )
        spent = remaining = None
        if self.accountant is not None:
            spent = float(self.accountant.spent()[0])
            remaining = float(self.accountant.remaining_epsilon())
        ledger.append(make_entry(
            sequence=ledger.next_sequence(),
            query=query.name,
            mechanism=self.config.mechanism,
            mean=inferred.mean,
            std=inferred.std,
            lower=inferred.lower,
            upper=inferred.upper,
            accountant_spent_epsilon=spent,
            accountant_remaining_epsilon=remaining,
            **fields,
        ))

    def _static_gate(self, query: MapReduceQuery) -> None:
        """Strict mode: upalint's purity + taint passes at registration.

        Runs once per (query class, name); error-severity diagnostics
        abort the submission before any budget is charged.  Imported
        lazily — the analyzer depends on nothing in this module, but
        sessions should not pay its import cost unless strict.
        """
        key = (type(query).__module__, type(query).__qualname__,
               query.name)
        if key in self._lint_cleared:
            return
        from repro.common.errors import StaticAnalysisError
        from repro.staticcheck import (
            Severity,
            check_query,
            check_query_taint,
            render_text,
        )

        diagnostics = check_query(query)
        diagnostics.extend(check_query_taint(query))
        errors = [
            d for d in diagnostics if d.severity == Severity.ERROR
        ]
        if errors:
            raise StaticAnalysisError(
                f"query {query.name!r} failed static analysis "
                f"({len(errors)} error(s)):\n{render_text(errors)}",
                errors,
            )
        self._lint_cleared.add(key)

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
        """Sensitivity inference only (no enforcement, no noise).

        Used by the accuracy benchmarks; does not register the query
        with RANGE ENFORCER and spends no budget.  It draws the per-run
        rng like a release does.
        """
        config = self.config
        table, _registered = self._lookup(protected_records(query, tables))
        self._run_counter += 1
        rng = make_rng(config.seed, f"upa-run-{self._run_counter}")
        sample = partition_and_sample(
            query, tables, config.sample_size, rng,
            table=table, tracer=self.tracer,
        )
        state = reduce_phase(
            query, self._aux(query, tables), sample, rng, engine=self.engine,
            parts=config.engine_partitions, tracer=self.tracer,
        )
        return infer_output_range(
            state.neighbours, state.population, config.inference
        )

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

    def _aux(self, query: MapReduceQuery, tables: Tables) -> Any:
        """``query``'s aux over ``tables``, kept per public tables."""
        aux, kept = self._tables.aux(query, tables)
        if kept:
            self.engine.metrics.incr(MetricsRegistry.AUX_REUSES)
        return aux

    def _remember_run(
        self, query: MapReduceQuery, tables: Tables, table: ProtectedTable,
    ) -> None:
        """Refresh append()/retire() bookkeeping after a release.

        A matching cursor continues; anything else — first run, new
        query, new tables, a table registered afresh — replaces it and
        evicts the old element blocks.
        """
        incr = self._incr
        if incr is not None and incr.matches(query, tables, table):
            return
        if incr is not None:
            self.engine.block_store.evict_rdd(incr.cache_rdd_id)
        self._incr = _IncrementalState(
            query, tables, table, self.engine.reserve_cache_id(),
        )

    def _incremental_elements(
        self,
        incr: "_IncrementalState",
        query: MapReduceQuery,
        aux: Any,
        sample: PartitionedSample,
    ) -> Tuple[Tuple[Tuple[List[Any], List[Any]], Any], dict]:
        """Assemble the mapped batches of S' and S from cached blocks.

        Returns, per partition, S' cut into the engine slices of
        :func:`reduce_phase`, each slice one ``map_batch`` batch; and
        S's batch.  The window of cached blocks holds every record's
        element, S's too, and an element does not depend on the batch
        it was mapped in (DESIGN.md section 5, item 6), so S is selected
        from it rather than mapped again.

        Blocks live in the engine's block store, keyed by ``(cache
        namespace, absolute block index)``; ``stop()`` clears the store,
        so a block is never read across a stop and is remapped instead.
        Only ``incremental_safe`` queries reuse blocks; others (aux
        reads the protected table, so old elements may be wrong under
        the new aux) remap everything each release, which still yields
        the bitwise-identical answer, just without the speedup.
        """
        engine = self.engine
        metrics = engine.metrics
        store = engine.block_store
        records = incr.table.rows
        cacheable = query.incremental_safe
        generation = engine.stop_generation
        if incr.stop_generation not in (None, generation):
            metrics.incr(MetricsRegistry.INCR_INVALIDATIONS)
        incr.stop_generation = generation
        base = incr.base_offset
        total = len(records)
        size = incr.block_records
        pieces: List[Any] = []
        hits = misses = reused = mapped = 0
        for b in range(base // size, (base + total - 1) // size + 1):
            lo = max(b * size, base)
            hi = min((b + 1) * size, base + total)
            key = (incr.cache_rdd_id, b)
            stored = store.get(key) if cacheable else None
            start, cached = stored or (lo, None)
            covered = start
            if cached is not None:
                covered += query.batch_length(cached)
            if not start <= lo < covered:
                start, cached, covered = lo, None, lo
            # The cached batch holds the elements of [start, covered);
            # the window wants [lo, hi) — retire() may have cut into the
            # block's head, append() may have grown past its tail.
            kept = min(covered, hi)
            if kept > lo:
                reused += kept - lo
                pieces.append(
                    query.batch_select(cached, range(lo - start, kept - start))
                )
            if kept == hi:
                hits += 1
                continue
            misses += 1
            mapped += hi - kept
            fresh = query.map_batch(records[kept - base:hi - base], aux)
            pieces.append(fresh)
            if cacheable:
                if cached is not None:
                    fresh = query.batch_concat([cached, fresh])
                store.put(key, (start, fresh))
        metrics.incr(MetricsRegistry.INCR_BLOCK_HITS, hits)
        metrics.incr(MetricsRegistry.INCR_BLOCK_MISSES, misses)
        metrics.incr(MetricsRegistry.INCR_RECORDS_REUSED, reused)
        metrics.incr(MetricsRegistry.INCR_RECORDS_MAPPED, mapped)
        delta_fraction = mapped / total if total else 0.0
        metrics.set_gauge(MetricsRegistry.INCR_DELTA_FRACTION, delta_fraction)

        # Take S' out of the window exactly as partition_and_sample
        # split the records themselves, in the slices the engine cuts a
        # cold run's S' into.
        window = query.batch_concat(pieces)
        parts = self.config.engine_partitions
        remaining = tuple(
            [
                query.batch_select(window, indices[lo:hi])
                for lo, hi in _engine_slices(len(indices), parts)
            ]
            for indices in sample.remaining_indices
        )
        mapped_s = query.batch_select(window, sample.sampled_indices)
        stats = {
            "blocks_reused": hits,
            "blocks_recomputed": misses,
            "records_reused": reused,
            "records_mapped": mapped,
            "delta_fraction": delta_fraction,
        }
        return (remaining, mapped_s), stats
