"""Tests for engine services: storage, partitioners, metrics, fault
injection + lineage recovery, lifecycle,
TPC-H SQL results with and without the optimizer, and DP releases and
SQL results under injected faults."""

import pytest

from repro.common.config import EngineConfig
from repro.common.errors import TaskFailedError
from repro.core import UPAConfig, UPASession
from repro.engine import EngineContext, FaultInjector
from repro.engine.events import JobListener
from repro.engine.fault import InjectedFault
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.engine.partitioner import HashPartitioner, RangePartitioner, _portable_hash
from repro.engine.storage import CACHE_CAPACITY_BLOCKS, BlockStore
from repro.mining import LifeScienceConfig, make_life_science_tables
from repro.sql import SQLSession, col
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.datagen import register_tables
from repro.tpch.workload import all_queries
from repro.workloads import all_workloads


class TestBlockStoreAndCaching:
    def test_lru_eviction(self):
        store = BlockStore(MetricsRegistry(), capacity_blocks=2)
        store.put((1, 0), [1])
        store.put((1, 1), [2])
        store.get((1, 0))  # refresh block (1,0)
        store.put((1, 2), [3])  # evicts LRU block (1,1)
        assert store.contains((1, 0))
        assert not store.contains((1, 1))
        assert store.contains((1, 2))

    def test_default_capacity(self):
        store = BlockStore(MetricsRegistry())
        for i in range(CACHE_CAPACITY_BLOCKS + 1):
            store.put((1, i), [i])
        assert len(store) == CACHE_CAPACITY_BLOCKS
        assert not store.contains((1, 0))
        assert store.contains((1, CACHE_CAPACITY_BLOCKS))

    def test_get_counts_hits_and_misses(self):
        metrics = MetricsRegistry()
        store = BlockStore(metrics)
        store.put((3, 0), [7])
        assert store.get((3, 0)) == [7]
        assert store.get((3, 1)) is None
        assert metrics.get(MetricsRegistry.CACHE_HITS) == 1
        assert metrics.get(MetricsRegistry.CACHE_MISSES) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockStore(MetricsRegistry(), capacity_blocks=0)

    def test_evict_rdd_counts(self):
        store = BlockStore(MetricsRegistry(), capacity_blocks=10)
        store.put((5, 0), [])
        store.put((5, 1), [])
        store.put((6, 0), [])
        assert store.evict_rdd(5) == 2
        assert store.contains((6, 0))


class TestPartitioners:
    def test_hash_partitioner_stable(self):
        p = HashPartitioner(8)
        assert p.partition("hello") == p.partition("hello")
        assert p.partition(("a", 1)) == p.partition(("a", 1))

    def test_hash_partitioner_range(self):
        p = HashPartitioner(4)
        for key in ["x", 0, 3.5, None, ("t", 2), True]:
            assert 0 <= p.partition(key) < 4

    def test_int_float_hash_consistent(self):
        # 2 and 2.0 are equal keys and must co-locate.
        assert _portable_hash(2) == _portable_hash(2.0)

    def test_date_hash_deterministic(self):
        import datetime

        d = datetime.date(1995, 6, 1)
        assert _portable_hash(d) == d.toordinal()

    def test_range_partitioner(self):
        p = RangePartitioner([10, 20])
        assert p.num_partitions == 3
        assert p.partition(5) == 0
        assert p.partition(15) == 1
        assert p.partition(25) == 2

    def test_range_partitioner_descending(self):
        p = RangePartitioner([10, 20], ascending=False)
        assert p.partition(5) == 2
        assert p.partition(25) == 0

    def test_partitioner_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert RangePartitioner([1]) != HashPartitioner(2)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestMetrics:
    def test_snapshot_diff(self):
        metrics = MetricsRegistry()
        metrics.incr("x", 5)
        first = metrics.snapshot()
        metrics.incr("x", 2)
        metrics.incr("y")
        delta = metrics.snapshot().diff(first)
        assert delta.get("x") == 2
        assert delta.get("y") == 1

    def test_cache_hit_rate(self):
        metrics = MetricsRegistry()
        assert metrics.cache_hit_rate() == 0.0
        metrics.incr(MetricsRegistry.CACHE_HITS, 3)
        metrics.incr(MetricsRegistry.CACHE_MISSES, 1)
        assert metrics.cache_hit_rate() == 0.75

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.incr("a")
        metrics.reset()
        assert metrics.get("a") == 0.0


class TestFaultToleranceAndScheduling:
    def test_results_identical_under_faults(self):
        clean = EngineContext()
        expected = (
            clean.parallelize(range(200), 8).map(lambda v: v * 7)
            .aggregate(0, _add, _add)
        )
        faulty = EngineContext()
        injector = FaultInjector(
            failure_probability=0.4, max_failures=20, seed=3
        )
        faulty.install_fault_injector(injector)
        actual = (
            faulty.parallelize(range(200), 8).map(lambda v: v * 7)
            .aggregate(0, _add, _add)
        )
        assert actual == expected
        assert injector.failures_injected >= 1
        assert (
            faulty.metrics.get(MetricsRegistry.TASK_RETRIES)
            == injector.failures_injected
        )

    def test_shuffle_survives_faults(self):
        faulty = EngineContext(EngineConfig(max_task_retries=8))
        faulty.install_fault_injector(
            FaultInjector(failure_probability=0.3, max_failures=10, seed=8)
        )
        out = dict(
            faulty.parallelize([(i % 3, 1) for i in range(30)], 5)
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        assert out == {0: 10, 1: 10, 2: 10}

    def test_exceeding_retry_limit_aborts(self):
        config = EngineConfig(max_task_retries=2)
        engine = EngineContext(config)
        engine.install_fault_injector(FaultInjector(failure_probability=1.0, seed=0))
        with pytest.raises(TaskFailedError) as err:
            engine.parallelize([1, 2, 3], 1).collect()
        failure = err.value
        assert failure.attempts == 3  # max_task_retries + 1
        assert failure.partition == 0
        assert isinstance(failure.cause, InjectedFault)

    def test_fault_injector_budget(self):
        injector = FaultInjector(failure_probability=1.0, max_failures=2, seed=0)
        failures = 0
        for attempt in range(10):
            try:
                injector.maybe_fail(1, 0, attempt)
            except Exception:
                failures += 1
        assert failures == 2

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            FaultInjector(failure_probability=1.5)

    def test_jobs_counted(self, ctx):
        before = ctx.metrics.get(MetricsRegistry.JOBS)
        ctx.parallelize([1], 1).collect()
        assert ctx.metrics.get(MetricsRegistry.JOBS) == before + 1

    def test_generator_partitions_normalized_once(self):
        """run_job iterates `partitions` twice (dispatch + event record);
        a generator argument must still yield every result and an
        accurate num_partitions."""
        ctx = EngineContext(EngineConfig(default_parallelism=4))
        listener = JobListener()
        ctx.install_job_listener(listener)
        rdd = ctx.parallelize(range(40), 4)
        results = ctx.scheduler.run_job(
            rdd, lambda it: sum(1 for _ in it),
            partitions=(p for p in range(rdd.num_partitions)),
        )
        assert sum(results) == 40
        assert len(results) == 4
        assert listener.events()[-1].num_partitions == 4


def _add(a, b):
    return a + b


def _sql_table(ctx):
    """A SQL table over ``ctx``: its scan and fused row stages run there."""
    session = SQLSession(engine=ctx)
    return session.create_table("t", [{"x": float(i)} for i in range(12)])


#: one job per kind of stage a permanent fault can abort.
_STAGE_JOBS = {
    "narrow": (
        lambda ctx: ctx.parallelize(range(12), 3).map(lambda v: v + 1),
        lambda rdd: rdd.collect(),
        list(range(1, 13)),
    ),
    "action": (
        lambda ctx: ctx.parallelize(range(12), 3).map(lambda v: v * v),
        lambda rdd: rdd.aggregate(0, _add, _add),
        sum(v * v for v in range(12)),
    ),
    "shuffle": (
        lambda ctx: ctx.parallelize([(i % 3, i) for i in range(12)], 3)
        .reduce_by_key(_add),
        lambda rdd: dict(rdd.collect()),
        {0: 18, 1: 22, 2: 26},
    ),
    "cogroup": (
        lambda ctx: ctx.parallelize([(i % 3, i) for i in range(12)], 3)
        .join(ctx.parallelize([(k, -k) for k in range(3)], 2)),
        lambda rdd: sorted(rdd.collect()),
        sorted((i % 3, (i, -(i % 3))) for i in range(12)),
    ),
    "sql": (
        lambda ctx: _sql_table(ctx).filter(col("x") > 3.0).to_rdd(),
        lambda rdd: sum(r["x"] for r in rdd.collect()),
        float(sum(range(4, 12))),
    ),
}


class TestPermanentFaults:
    """A task whose every attempt fails aborts its job, whatever stage
    it sits in; the engine stays usable and recomputes from lineage."""

    @pytest.mark.parametrize("kind", sorted(_STAGE_JOBS))
    def test_retry_exhausted_raises_and_lineage_recovers(self, kind):
        build, action, expected = _STAGE_JOBS[kind]
        ctx = EngineContext(EngineConfig(max_task_retries=2))
        rdd = build(ctx)
        ctx.install_fault_injector(FaultInjector(failure_probability=1.0))
        with pytest.raises(TaskFailedError) as err:
            action(rdd)
        assert err.value.attempts == 3  # max_task_retries + 1
        assert isinstance(err.value.cause, InjectedFault)
        assert len(ctx.block_store) == 0  # no attempt stored a block
        ctx.install_fault_injector(None)
        assert action(rdd) == expected


class TestLifecycle:
    def test_stop_clears_block_store_and_jobs_recompute(self, ctx):
        namespace = ctx.reserve_cache_id()
        for split in range(2):
            ctx.block_store.put((namespace, split), [split])
        rdd = ctx.parallelize(range(10), 2).map(lambda v: v * 2)
        assert rdd.collect() == list(range(0, 20, 2))
        ctx.stop()
        assert len(ctx.block_store) == 0
        assert ctx.stop_generation == 1
        ctx.stop()  # a second stop drops nothing more
        assert ctx.stop_generation == 2
        assert rdd.collect() == list(range(0, 20, 2))
        assert ctx.block_store.get((namespace, 0)) is None

    def test_context_manager_stops_on_exit(self):
        with EngineContext() as ctx:
            ctx.block_store.put((ctx.reserve_cache_id(), 0), [1])
            assert len(ctx.block_store) == 1
        assert len(ctx.block_store) == 0
        assert ctx.stop_generation == 1


@pytest.fixture(scope="module")
def small_tpch():
    return TPCHGenerator(TPCHConfig(scale_rows=300, seed=11)).generate()


@pytest.fixture(scope="module")
def small_ml():
    return make_life_science_tables(
        LifeScienceConfig(num_records=200, dim=4, num_clusters=3, seed=11)
    )


@pytest.mark.parametrize("query", all_queries(), ids=lambda q: q.name)
def test_tpch_sql_optimized_matches_plan_as_written(query, small_tpch):
    session = SQLSession()
    register_tables(session, small_tpch)
    df = query.dataframe(session)
    assert df.collect() == session.executor.execute(df.plan).collect()


def _faulty_engine():
    """An engine failing about half its task attempts, never past the
    retry limit, so every job still completes from lineage."""
    engine = EngineContext(EngineConfig(default_parallelism=2))
    injector = FaultInjector(failure_probability=0.5, max_failures=3, seed=1)
    engine.install_fault_injector(injector)
    return engine, injector


def _assert_retried(engine, injector):
    assert injector.failures_injected >= 1
    assert (
        engine.metrics.get(MetricsRegistry.TASK_RETRIES)
        == injector.failures_injected
    )


def _release(workload, tables, engine=None):
    session = UPASession(UPAConfig(sample_size=30, seed=77), engine=engine)
    return session.run(workload.query, tables, epsilon=0.5)


def _assert_same_release(a, b):
    for field in ("noisy_output", "raw_output", "plain_output",
                  "removal_outputs", "addition_outputs"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), \
            field
    assert a.local_sensitivity == b.local_sensitivity


class TestWorkloadsUnderFaults:
    """Retried tasks and engine history never reach a released value."""

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name
    )
    def test_dp_outputs_identical_under_injected_faults(
        self, workload, small_tpch, small_ml
    ):
        tables = small_ml if workload.query_type == "ml" else small_tpch
        engine, injector = _faulty_engine()
        faulty = _release(workload, tables, engine)
        _assert_retried(engine, injector)
        _assert_same_release(faulty, _release(workload, tables))

    @pytest.mark.parametrize("query", all_queries(), ids=lambda q: q.name)
    def test_tpch_sql_identical_under_injected_faults(self, query, small_tpch):
        engine, injector = _faulty_engine()
        plain = SQLSession(
            engine=EngineContext(EngineConfig(default_parallelism=2))
        )
        faulty = SQLSession(engine=engine)
        for session in (plain, faulty):
            register_tables(session, small_tpch)
        expected = query.dataframe(plain).collect()
        assert query.dataframe(faulty).collect() == expected
        _assert_retried(engine, injector)

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name
    )
    def test_dp_outputs_independent_of_engine_history(
        self, workload, small_tpch, small_ml
    ):
        """A release on an engine that already ran every workload and
        was stopped equals one on a fresh engine: rdd ids, cached
        blocks and stage ids are not inputs to a release."""
        tables = small_ml if workload.query_type == "ml" else small_tpch
        engine = EngineContext(EngineConfig(default_parallelism=2))
        for other in all_workloads():
            _release(
                other, small_ml if other.query_type == "ml" else small_tpch,
                engine,
            )
        engine.stop()
        _assert_same_release(
            _release(workload, tables, engine), _release(workload, tables)
        )
