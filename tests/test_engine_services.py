"""Tests for engine services: metrics, fault injection + lineage
recovery, lifecycle,
TPC-H SQL results with and without the optimizer, and DP releases and
SQL results under injected faults."""

import pytest

from repro.common.config import EngineConfig
from repro.common.errors import TaskFailedError
from repro.core import UPAConfig, UPASession
from repro.core.dpobject import dpread
from repro.engine import EngineContext, FaultInjector
from repro.engine.fault import InjectedFault
from repro.engine.metrics import MetricsRegistry
from repro.mining import LifeScienceConfig, make_life_science_tables
from repro.obs import Tracer
from repro.sql import SQLSession
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.datagen import register_tables
from repro.tpch.workload import all_queries
from repro.workloads import all_workloads
from tests.spans import find


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

    def test_a_job_runs_every_partition_once(self):
        """run_job returns one result per partition, in order, and its
        span counts the partitions and the task attempts."""
        ctx = EngineContext(EngineConfig(default_parallelism=4))
        tracer = Tracer()
        ctx.install_tracer(tracer)
        rdd = ctx.parallelize(range(40), 4)
        results = ctx.scheduler.run_job(rdd, lambda it: sum(1 for _ in it))
        assert results == [10, 10, 10, 10]
        assert len(results) == 4
        (job,) = find(tracer, "engine.job")
        assert job.attributes["partitions"] == 4
        assert job.attributes["task_attempts"] == 4


def _add(a, b):
    return a + b


def _sql_rdd(ctx):
    """A SQL text's rows over ``ctx``: its scan and fused row stages
    run there."""
    session = SQLSession(engine=ctx)
    session.create_table("t", [{"x": float(i)} for i in range(12)])
    return session.execute_plan(
        session.sql("SELECT x FROM t WHERE x > 3.0").plan
    )


def _dpread_kv(ctx, pairs, parts):
    """Table I's S and S' of ``pairs``; dpread's own job runs here,
    before any fault is injected."""
    return dpread(ctx.parallelize(pairs, parts), 2, seed=0).as_kv()


def _joined(result):
    """Every tuple a joinDP result holds, sampled indices dropped."""
    differing = [(k, (v, w)) for k, (_i, _j, v, w) in result.differing]
    return sorted(result.remaining_join.collect() + differing)


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
    "reduce_by_key_dp": (
        lambda ctx: _dpread_kv(ctx, [(i % 3, i) for i in range(12)], 3),
        lambda kv: kv.reduce_by_key_dp(_add)[1],
        {0: 18, 1: 22, 2: 26},
    ),
    "join_dp": (
        lambda ctx: (
            _dpread_kv(ctx, [(i % 3, i) for i in range(12)], 3),
            _dpread_kv(ctx, [(k, -k) for k in range(3)], 2),
        ),
        lambda sides: _joined(sides[0].join_dp(sides[1])),
        sorted((i % 3, (i, -(i % 3))) for i in range(12)),
    ),
    "sql": (
        _sql_rdd,
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
        ctx.install_fault_injector(None)
        assert action(rdd) == expected


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
    df = session.sql(query.sql_text())
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
        expected = plain.sql(query.sql_text()).collect()
        assert faulty.sql(query.sql_text()).collect() == expected
        _assert_retried(engine, injector)

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name
    )
    def test_dp_outputs_independent_of_engine_history(
        self, workload, small_tpch, small_ml
    ):
        """A release on an engine that already ran every workload
        equals one on a fresh engine: rdd ids and stage ids are not
        inputs to a release."""
        tables = small_ml if workload.query_type == "ml" else small_tpch
        engine = EngineContext(EngineConfig(default_parallelism=2))
        for other in all_workloads():
            _release(
                other, small_ml if other.query_type == "ml" else small_tpch,
                engine,
            )
        _assert_same_release(
            _release(workload, tables, engine), _release(workload, tables)
        )
