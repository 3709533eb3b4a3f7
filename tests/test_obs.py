"""Tests for the observability subsystem: tracing, metrics, ledger.

Covers the repro.obs package in isolation, its integration with the
engine (span parentage, the ``engine.job`` span's task attempts), the
UPASession audit trail, and the CLI artifact round-trip (``repro run
--trace/--ledger`` -> ``repro report``).
"""

import argparse
import json
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.errors import DPError
from repro.core import UPAConfig, UPASession
from repro.dp import PrivacyAccountant
from repro.engine import EngineContext
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    ObservedRun,
    PrivacyLedger,
    Tracer,
    get_tracer,
    make_entry,
    run_header,
    set_tracer,
    trace,
    use_tracer,
)
from repro.obs.report import PHASE_ORDER, QUERY_TABLE_TITLE, percentile
from repro.obs.tracing import _current_span
from repro.tpch import TPCHConfig, TPCHGenerator, query_by_name
from repro.workloads import all_workloads, workload_by_name
from tests.spans import find, from_live, phase_spans

_HERE = os.path.dirname(__file__)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_records_timing_and_name(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            pass
        assert len(tracer) == 1
        done = tracer.spans()[0]
        assert done is span
        assert done.name == "work"
        assert done.attributes["size"] == 3
        assert done.end is not None and done.end >= done.start
        assert done.duration >= 0.0

    def test_nesting_sets_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert _current_span.get() is inner
            assert _current_span.get() is outer
        assert _current_span.get() is None
        inner_done, outer_done = tracer.spans()
        assert inner_done.name == "inner"
        assert inner_done.parent_id == outer_done.span_id
        assert outer_done.parent_id is None

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        span = tracer.spans()[0]
        assert span.attributes["error"] == "ValueError"
        assert span.end is not None

    def test_set_attribute_while_live(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set_attribute("records", 42)
        assert tracer.spans()[0].attributes["records"] == 42

    def test_find_and_phase_spans(self):
        tracer = Tracer()
        with tracer.span("phase:noise"):
            pass
        with tracer.span("phase:map"):
            pass
        with tracer.span("other"):
            pass
        assert [s.name for s in find(tracer, "other")] == ["other"]
        # start order, not completion or canonical order
        assert [s.name for s in phase_spans(tracer)] == [
            "phase:noise", "phase:map",
        ]

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert len(tracer) == 0

    def test_thread_safety_of_record(self):
        tracer = Tracer()

        def work():
            for _ in range(100):
                with tracer.span("t"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 800
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == 800  # ids unique under contention

    def test_chrome_trace_format(self):
        tracer = Tracer(header={"workload": "t", "epsilon": 0.5})
        with tracer.span("outer"):
            with tracer.span("inner", n=7):
                pass
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"] == {"workload": "t", "epsilon": 0.5}
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert "span_id" in event["args"]
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert inner["args"]["n"] == 7
        json.dumps(doc)  # must be serializable as-is

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer(header={"h": 1})
        with tracer.span("s"):
            pass
        chrome = tmp_path / "t.json"
        tracer.write_chrome_trace(str(chrome))
        with open(chrome) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"][0]["name"] == "s"
        assert doc["metadata"] == {"h": 1}


class TestNullTracerAndAmbient:
    def test_null_tracer_records_nothing(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", big=1)
        with span:
            span.set_attribute("x", 1)
        assert len(NULL_TRACER) == 0
        # every call returns the same shared no-op object
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_tracer_is_a_tracer(self):
        assert isinstance(NullTracer(), Tracer)

    def test_ambient_default_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is previous

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace("scoped", k=1):
                pass
        assert get_tracer() is NULL_TRACER
        assert [s.name for s in tracer.spans()] == ["scoped"]
        assert tracer.spans()[0].attributes == {"k": 1}

    def test_trace_is_free_when_disabled(self):
        with trace("ignored"):
            pass  # ambient is NULL_TRACER: nothing recorded anywhere

    def test_trace_as_decorator(self):
        tracer = Tracer()

        @trace("decorated")
        def f(x):
            return x + 1

        assert f(1) == 2  # disabled: plain call
        with use_tracer(tracer):
            assert f(2) == 3
        assert [s.name for s in tracer.spans()] == ["decorated"]

    def test_trace_decorator_defaults_to_qualname(self):
        tracer = Tracer()

        @trace()
        def named():
            return 1

        with use_tracer(tracer):
            named()
        assert "named" in tracer.spans()[0].name


# ---------------------------------------------------------------------------
# Metrics: percentiles, counters, snapshot diff
# ---------------------------------------------------------------------------


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero samples"):
            percentile([], 50.0)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_tied_values(self):
        assert percentile([3.0, 3.0, 3.0, 3.0], 90.0) == 3.0

    def test_matches_numpy_linear_interpolation(self):
        data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(data, q) == pytest.approx(
                float(np.percentile(data, q))
            )

    def test_input_order_irrelevant(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0


class TestMetricsRegistry:
    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.incr("c")
        registry.incr("c", 2.5)
        snap = registry.snapshot()
        assert snap.get("c") == 3.5 and registry.get("c") == 3.5
        assert snap.get("missing") == 0.0
        assert snap.counters == {"c": 3.5}
        registry.incr("c")
        assert snap.get("c") == 3.5  # a snapshot is a copy


class TestMetricsSnapshotDiff:
    def test_diff_with_disjoint_counter_keys(self):
        earlier = MetricsSnapshot(counters={"a": 2.0})
        later = MetricsSnapshot(counters={"b": 3.0})
        delta = later.diff(earlier)
        assert delta.get("a") == -2.0  # reset/absent counts negative
        assert delta.get("b") == 3.0
        assert delta.get("missing") == 0.0

    def test_since_a_mark_is_the_snapshot_diff(self):
        registry = MetricsRegistry()
        registry.incr("jobs_run")
        registry.incr("old")
        before, mark = registry.snapshot(), registry.mark()
        registry.incr("jobs_run", 2.0)
        registry.incr("new_counter")
        since = registry.since(mark)
        assert since == registry.snapshot().diff(before)
        assert since.get("jobs_run") == 2.0 and since.get("new_counter") == 1.0
        assert since.get("old") == 0.0

    def test_engine_level_diff(self):
        ctx = EngineContext()
        ctx.parallelize(range(10), 2).collect()
        before = ctx.metrics.snapshot()
        ctx.parallelize(range(10), 5).collect()
        delta = ctx.metrics.snapshot().diff(before)
        assert delta.get(MetricsRegistry.JOBS) == 1.0
        assert delta.get(MetricsRegistry.TASKS) == 5.0
        assert delta.get(MetricsRegistry.RECORDS_READ) == 10.0


# ---------------------------------------------------------------------------
# Privacy ledger
# ---------------------------------------------------------------------------


def _entry(sequence=0, query="q", epsilon=0.1, cache_hit=False,
           clamped=False, matched_prior=False, removed=0, noise_scale=None,
           sensitivity=2.0, refused=False):
    return make_entry(
        sequence=sequence,
        query=query,
        epsilon_charged=epsilon,
        delta=0.0,
        mechanism="laplace",
        sample_size=100,
        mean=np.array([1.0, 2.0]),
        std=np.array([0.1, 0.2]),
        lower=np.array([0.5, 1.5]),
        upper=np.array([1.5, 2.5]),
        local_sensitivity=sensitivity,
        estimated_local_sensitivity=1.8,
        clamped=clamped,
        matched_prior=matched_prior,
        records_removed=removed,
        noise_scale=noise_scale,
        cache_hit=cache_hit,
        refused=refused,
        elapsed_seconds=0.01,
    )


class TestPrivacyLedger:
    def test_make_entry_normalizes_numpy(self):
        entry = _entry()
        assert entry.fitted_mean == (1.0, 2.0)
        assert isinstance(entry.fitted_mean, tuple)
        assert isinstance(entry.local_sensitivity, float)

    def test_append_only_no_clear(self):
        ledger = PrivacyLedger()
        assert not hasattr(ledger, "clear")
        ledger.append(_entry(0))
        ledger.append(_entry(1))
        assert len(ledger) == 2
        assert [e.sequence for e in ledger] == [0, 1]

    def test_next_sequence_tracks_length(self):
        ledger = PrivacyLedger()
        assert ledger.next_sequence() == 0
        ledger.append(_entry(0))
        assert ledger.next_sequence() == 1

    def test_query_filters(self):
        ledger = PrivacyLedger()
        ledger.append(_entry(0, query="a"))
        ledger.append(_entry(1, query="b", clamped=True))
        ledger.append(_entry(2, query="a", cache_hit=True, epsilon=0.0))
        assert len(ledger.query(query_name="a")) == 2
        assert len(ledger.query(clamped=True)) == 1
        assert len(ledger.query(query_name="a", cache_hit=False)) == 1
        assert len(ledger.query(matched_prior=True)) == 0

    def test_totals(self):
        ledger = PrivacyLedger()
        ledger.append(_entry(0, epsilon=0.1, clamped=True, removed=2))
        ledger.append(_entry(1, epsilon=0.2, cache_hit=True))
        totals = ledger.totals()
        assert totals["entries"] == 2
        assert totals["epsilon_charged"] == pytest.approx(0.3)
        assert totals["clamp_count"] == 1
        assert totals["records_removed"] == 2
        assert totals["cache_hits"] == 1

    def test_totals_count_refusals_apart(self):
        ledger = PrivacyLedger()
        ledger.append(_entry(0, epsilon=0.1))
        ledger.append(_entry(1, epsilon=0.0, refused=True))
        ledger.append(_entry(2, epsilon=0.0, cache_hit=True))
        totals = ledger.totals()
        assert totals["entries"] == 3
        assert totals["refused"] == 1
        assert totals["cache_hits"] == 1
        assert totals["epsilon_charged"] == pytest.approx(0.1)

    def test_ensure_header_fills_once(self):
        ledger = PrivacyLedger()
        ledger.ensure_header({"epsilon": 0.1})
        ledger.ensure_header({"epsilon": 9.9})
        assert ledger.header == {"epsilon": 0.1}

    def test_jsonl_round_trip(self, tmp_path):
        ledger = PrivacyLedger(header={"workload": "t", "epsilon": 0.1})
        ledger.append(_entry(0))
        ledger.append(_entry(1, cache_hit=True, epsilon=0.0))
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(str(path))

        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 entries
        header = json.loads(lines[0])
        assert header["format"] == PrivacyLedger.FORMAT
        assert header["workload"] == "t"

        loaded = PrivacyLedger.read_jsonl(str(path))
        assert loaded.header == {"workload": "t", "epsilon": 0.1}
        assert len(loaded) == 2
        first = loaded.entries()[0]
        assert first.fitted_mean == (1.0, 2.0)
        assert first.local_sensitivity == 2.0
        assert loaded.entries()[1].cache_hit is True

    def test_noise_scale_round_trips(self, tmp_path):
        ledger = PrivacyLedger()
        ledger.append(_entry(0, noise_scale=20.0))
        ledger.append(_entry(1))  # a refusal: no noise was drawn
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(str(path))
        loaded = PrivacyLedger.read_jsonl(str(path))
        assert [e.noise_scale for e in loaded] == [20.0, None]

    def test_reads_a_line_written_without_noise_scale(self, tmp_path):
        ledger = PrivacyLedger()
        ledger.append(_entry(0, noise_scale=20.0))
        path = tmp_path / "old.jsonl"
        ledger.write_jsonl(str(path))
        header, line = path.read_text().splitlines()
        data = json.loads(line)
        del data["noise_scale"]
        path.write_text(header + "\n" + json.dumps(data) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (entry,) = PrivacyLedger.read_jsonl(str(path)).entries()
        assert entry.noise_scale is None
        assert entry.local_sensitivity == 2.0

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(PrivacyLedger.read_jsonl(str(path))) == 0

    def test_reads_a_ledger_written_with_executor_fields(self, tmp_path):
        # Ledgers up to 1.13.0 carried the executor in their header.
        old = PrivacyLedger(header={"backend": "processes", "max_workers": 2})
        old.append(_entry(0))
        path = tmp_path / "old.jsonl"
        old.write_jsonl(str(path))
        loaded = PrivacyLedger.read_jsonl(str(path))
        assert loaded.header["backend"] == "processes"
        assert len(loaded) == 1
        report = ObservedRun.from_artifacts(ledger_path=str(path))
        assert "privacy ledger entries" in report.render_text()


class TestLedgerCrashSafety:
    def _write_ledger(self, path, n=3):
        ledger = PrivacyLedger()
        for i in range(n):
            ledger.append(_entry(i))
        ledger.write_jsonl(str(path))
        return ledger

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 40])  # chop mid-JSON
        with pytest.warns(RuntimeWarning):
            recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 2
        assert [e.sequence for e in recovered.entries()] == [0, 1]

    def test_blank_lines_skipped_silently(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines.append("   ")
        path.write_text("\n".join(lines) + "\n")
        recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 3

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._write_ledger(path)
        lines = path.read_text().splitlines()
        lines[2] = '{"sequence": 1, "query": '  # corrupt entry 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning):
            recovered = PrivacyLedger.read_jsonl(str(path))
        assert [e.sequence for e in recovered.entries()] == [0, 2]

    def test_a_ledger_appended_entry_by_entry_reads_back(self, tmp_path):
        """A writer may append one line per release, the header first;
        the file is a valid ledger after every line."""
        path = tmp_path / "ledger.jsonl"
        ledger = PrivacyLedger()
        for i in range(3):
            entry = _entry(i)
            ledger.append(entry)
            with open(path, "a", encoding="utf-8") as handle:
                if i == 0:
                    handle.write(json.dumps(
                        {"format": PrivacyLedger.FORMAT, **ledger.header},
                        sort_keys=True, default=str,
                    ) + "\n")
                handle.write(json.dumps(
                    entry.to_dict(), sort_keys=True, default=str
                ) + "\n")
            assert len(PrivacyLedger.read_jsonl(str(path))) == i + 1
        recovered = PrivacyLedger.read_jsonl(str(path))
        assert len(recovered) == 3
        assert recovered.header.get("format") or True  # header present
        # header must be written exactly once
        headers = [ln for ln in path.read_text().splitlines()
                   if '"entries"' not in ln and '"sequence"' not in ln]
        assert len(headers) == 1


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


def _faulty_context():
    """An engine whose tasks fail at random and are retried."""
    from repro.common.config import EngineConfig
    from repro.engine import FaultInjector

    ctx = EngineContext(EngineConfig(max_task_retries=5))
    ctx.install_fault_injector(
        FaultInjector(failure_probability=0.5, max_failures=3, seed=1)
    )
    return ctx


class TestEngineTracing:
    def test_install_tracer_wires_scheduler(self):
        ctx = EngineContext()
        tracer = Tracer()
        ctx.install_tracer(tracer)
        assert ctx.tracer is tracer
        assert ctx.scheduler.tracer is tracer
        ctx.install_tracer(None)
        assert ctx.tracer is NULL_TRACER
        assert ctx.scheduler.tracer is NULL_TRACER

    def test_jobs_emit_spans_under_the_driver_span(self):
        ctx = EngineContext()
        tracer = Tracer()
        ctx.install_tracer(tracer)
        with tracer.span("driver"):
            ctx.parallelize(range(100), 4).map(lambda v: v * 2).collect()
        jobs = find(tracer, "engine.job")
        assert len(jobs) == 1
        driver = find(tracer, "driver")[0]
        assert jobs[0].parent_id == driver.span_id
        assert jobs[0].attributes["partitions"] == 4
        assert jobs[0].attributes["rdd_type"] == "MapPartitionsRDD"

    @pytest.mark.parametrize("partitions", [1, 2, 4, 7])
    def test_task_attempts_equal_partitions_without_a_fault(
        self, partitions
    ):
        ctx = EngineContext()
        tracer = Tracer()
        ctx.install_tracer(tracer)
        ctx.parallelize(range(20), partitions).collect()
        (job,) = find(tracer, "engine.job")
        assert job.attributes["partitions"] == partitions
        assert job.attributes["task_attempts"] == partitions

    def test_retries_counted_in_task_attempts(self):
        ctx = _faulty_context()
        tracer = Tracer()
        ctx.install_tracer(tracer)
        assert ctx.parallelize(range(20), 4).collect() == list(range(20))
        (job,) = find(tracer, "engine.job")
        retries = ctx.metrics.get(MetricsRegistry.TASK_RETRIES)
        assert retries >= 1
        assert job.attributes["task_attempts"] == 4 + retries > 4
        engine = from_live(tracer).engine_summary()
        assert engine == {
            "jobs": 1, "tasks": 4, "attempts": 4 + retries,
            "retried": retries,
        }

    def test_each_job_counts_its_own_retries(self):
        ctx = _faulty_context()
        tracer = Tracer()
        ctx.install_tracer(tracer)
        rdd = ctx.parallelize(range(20), 4)
        for _ in range(3):
            rdd.collect()
        jobs = find(tracer, "engine.job")
        assert len(jobs) == 3
        attempts = [job.attributes["task_attempts"] for job in jobs]
        assert sum(attempts) == (
            ctx.metrics.get(MetricsRegistry.TASKS)
            + ctx.metrics.get(MetricsRegistry.TASK_RETRIES)
        )
        assert all(a >= 4 for a in attempts)

    def test_a_failed_job_has_no_task_attempts(self):
        from repro.common.config import EngineConfig
        from repro.common.errors import TaskFailedError
        from repro.engine import FaultInjector

        ctx = EngineContext(EngineConfig(max_task_retries=0))
        ctx.install_fault_injector(
            FaultInjector(failure_probability=1.0, max_failures=10, seed=1)
        )
        tracer = Tracer()
        ctx.install_tracer(tracer)
        with pytest.raises(TaskFailedError):
            ctx.parallelize(range(4), 2).collect()
        (job,) = find(tracer, "engine.job")
        assert "task_attempts" not in job.attributes
        assert "error" in job.attributes

    def test_disabled_tracer_records_nothing(self):
        ctx = EngineContext()
        ctx.parallelize(range(10), 2).collect()
        assert len(NULL_TRACER) == 0


# ---------------------------------------------------------------------------
# Session integration: phases + audit trail
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def observed_session():
    from repro.core.session import UPAConfig, UPASession
    from repro.dp.budget import PrivacyAccountant
    from repro.workloads import workload_by_name

    workload = workload_by_name("tpch1")
    tables = workload.make_tables(300, 0)
    tracer = Tracer()
    ledger = PrivacyLedger()
    accountant = PrivacyAccountant(total_epsilon=10.0)
    session = UPASession(
        UPAConfig(epsilon=1.0, sample_size=50, seed=1),
        accountant=accountant,
        tracer=tracer,
        ledger=ledger,
    )
    result = session.run(workload.query, tables)
    cached = session.run(workload.query, tables)  # a replay
    return session, tracer, ledger, result, cached


class TestSessionObservability:
    def test_all_phases_traced(self, observed_session):
        _, tracer, _, _, _ = observed_session
        phase_names = [s.name for s in phase_spans(tracer)]
        assert phase_names == list(PHASE_ORDER)

    def test_phases_nest_under_run_span(self, observed_session):
        _, tracer, _, _, _ = observed_session
        run = find(tracer, "upa.run")[0]
        for span in phase_spans(tracer):
            if span.name != "phase:enforce":
                assert span.parent_id == run.span_id

    def test_enforce_nests_under_noise(self, observed_session):
        session, tracer, _, result, _ = observed_session
        (noise,) = find(tracer, "phase:noise")
        (enforce,) = find(tracer, "phase:enforce")
        assert enforce.parent_id == noise.span_id
        assert noise.start <= enforce.start and enforce.end <= noise.end
        assert enforce.attributes["registry"] == 0
        assert (enforce.attributes["matched_prior"]
                == result.enforcement.matched_prior)
        # nothing registered yet: no sweep, nothing removed.
        assert enforce.attributes["sweeps"] == 0
        assert enforce.attributes["records_removed"] == 0
        report = from_live(tracer=tracer)
        assert report.enforcement_summary() == {
            "releases": 1, "registry": 0, "sweeps": 0, "records_removed": 0,
            "refused": 0, "refused_sweeps": 0, "refused_records_removed": 0,
        }
        assert "1 releases against a registry of up to 0" in (
            report.render_text()
        )
        # phase:map says how much work the engine's slice tasks did.
        (map_phase,) = find(tracer, "phase:map")
        assert map_phase.attributes["slices"] == (
            2 * session.config.engine_partitions
        )
        assert map_phase.attributes["records"] + result.sample_size == 300

    def test_enforce_span_counts_sweeps_and_removals(self):
        from repro.core.session import UPAConfig, UPASession
        from repro.workloads import workload_by_name

        workload = workload_by_name("tpch1")
        tables = workload.make_tables(300, 0)
        minus_one = dict(tables)
        minus_one["lineitem"] = tables["lineitem"][:-1]
        tracer = Tracer()
        session = UPASession(UPAConfig(sample_size=50, seed=1), tracer=tracer)
        session.run(workload.query, tables, epsilon=0.5)
        result = session.run(workload.query, minus_one, epsilon=0.5)
        _, enforce = find(tracer, "phase:enforce")
        removed = result.enforcement.records_removed
        assert removed >= 2
        assert enforce.attributes == {
            "registry": 1, "matched_prior": True,
            "sweeps": result.enforcement.sweeps, "records_removed": removed,
        }
        assert enforce.attributes["sweeps"] >= 1
        assert (
            f"2 releases against a registry of up to 1 submissions, "
            f"{result.enforcement.sweeps} sweeps, {removed} records removed"
        ) in from_live(tracer=tracer).render_text()

    def test_sampling_steps_nest_under_partition_sample(
        self, observed_session
    ):
        _, tracer, _, _, _ = observed_session
        phase = find(tracer, "phase:partition_sample")[0]
        steps = [s for s in tracer.spans() if s.parent_id == phase.span_id]
        assert [s.name for s in steps] == [
            "sampling.split", "sampling.domain_sample",
        ]
        # S-bar came from the query's batch sampler, in one call.
        assert steps[-1].attributes == {"records": 50, "batched": True}
        # The table lookup comes first, before a replay is looked for.
        run = find(tracer, "upa.run")[0]
        lookup = find(tracer, "sampling.fingerprint")[0]
        assert lookup.parent_id == run.span_id
        assert lookup.end <= phase.start
        report = from_live(tracer=tracer)
        # This release registered the table (before phase 1 ran): it
        # reused nothing.
        assert report.domain_sampling_summary() == {
            "releases": 1, "records": 50, "batched": 1, "registered": 0,
        }
        assert "50 S-bar records over 1 releases" in report.render_text()

    def test_per_record_sampler_is_not_batched(self):
        from repro.core.session import UPAConfig, UPASession

        tracer = Tracer()
        UPASession(UPAConfig(sample_size=20, seed=3), tracer=tracer).run_sql(
            "SELECT SUM(v) AS s FROM vals",
            {"vals": [{"v": float(i)} for i in range(100)]}, "vals",
            epsilon=0.5, domain_sampler=lambda rng, _t: {"v": rng.random()},
        )
        (span,) = find(tracer, "sampling.domain_sample")
        assert span.attributes == {"records": 20, "batched": False}

    def test_engine_jobs_nest_under_map_phase(self, observed_session):
        _, tracer, _, _, _ = observed_session
        map_phase = find(tracer, "phase:map")[0]
        jobs = find(tracer, "engine.job")
        assert jobs and all(j.parent_id == map_phase.span_id for j in jobs)

    def test_ledger_audit_fields(self, observed_session):
        _, _, ledger, result, _ = observed_session
        entry = ledger.entries()[0]
        assert entry.query == "tpch1"
        assert entry.epsilon_charged == 1.0
        assert entry.mechanism == "laplace"
        assert entry.sample_size == 50
        inferred = result.inferred_range
        assert entry.fitted_mean == tuple(float(v) for v in
                                          np.atleast_1d(inferred.mean))
        assert entry.fitted_std == tuple(float(v) for v in
                                         np.atleast_1d(inferred.std))
        assert entry.range_lower == tuple(float(v) for v in
                                          np.atleast_1d(inferred.lower))
        assert entry.range_upper == tuple(float(v) for v in
                                          np.atleast_1d(inferred.upper))
        assert entry.local_sensitivity == result.local_sensitivity
        assert entry.clamped == result.enforcement.clamped
        assert entry.records_removed == result.enforcement.records_removed
        assert entry.elapsed_seconds > 0

    def test_ledger_tracks_accountant_balance(self, observed_session):
        session, _, ledger, _, _ = observed_session
        entry = ledger.entries()[0]
        assert entry.accountant_spent_epsilon == pytest.approx(1.0)
        assert entry.accountant_remaining_epsilon == pytest.approx(9.0)

    def test_a_replay_is_a_run_span_with_only_the_lookup(
        self, observed_session
    ):
        _, tracer, _, _, _ = observed_session
        release, replay = find(tracer, "upa.run")
        assert release.attributes["replayed"] is False
        assert replay.attributes["replayed"] is True
        assert [
            s.name for s in tracer.spans() if s.parent_id == replay.span_id
        ] == ["sampling.fingerprint"]

    def test_cache_hit_audited_without_spend(self, observed_session):
        _, _, ledger, result, cached = observed_session
        assert len(ledger) == 2
        hit = ledger.entries()[1]
        assert hit.cache_hit is True
        assert hit.epsilon_charged == 0.0
        assert np.allclose(cached.noisy_output, result.noisy_output)
        totals = ledger.totals()
        assert totals["epsilon_charged"] == pytest.approx(1.0)
        assert totals["cache_hits"] == 1

    def test_session_auto_installs_tracer_into_engine(self, observed_session):
        session, tracer, _, _, _ = observed_session
        assert session.engine.tracer is tracer

    def test_session_without_obs_stays_null(self):
        from repro.core.session import UPAConfig, UPASession
        from repro.workloads import workload_by_name

        workload = workload_by_name("tpch1")
        tables = workload.make_tables(200, 0)
        session = UPASession(UPAConfig(sample_size=30, seed=2))
        session.run(workload.query, tables)
        assert session.tracer is NULL_TRACER
        assert session.ledger is None
        assert session.engine.tracer is NULL_TRACER

    def test_session_follows_ambient_tracer(self):
        from repro.core.session import UPAConfig, UPASession
        from repro.workloads import workload_by_name

        workload = workload_by_name("tpch1")
        tables = workload.make_tables(200, 0)
        session = UPASession(UPAConfig(sample_size=30, seed=2))
        tracer = Tracer()
        with use_tracer(tracer):
            session.run(workload.query, tables)
        assert len(find(tracer, "upa.run")) == 1



# ---------------------------------------------------------------------------
# ObservedRun report
# ---------------------------------------------------------------------------


class TestObservedRun:
    def test_run_header_contents(self):
        header = run_header(epsilon=0.1, seed=3)
        assert header["epsilon"] == 0.1 and header["seed"] == 3
        assert "repro_version" in header and "python_version" in header

    def test_from_live(self, observed_session):
        session, tracer, ledger, _, _ = observed_session
        observed = from_live(tracer, ledger)
        stats = observed.phase_stats()
        assert [s.name for s in stats] == list(PHASE_ORDER)
        assert all(s.count == 1 for s in stats)
        assert observed.ledger_totals["entries"] == 2
        # one engine job per stable partition's S'
        jobs = session.engine.metrics.get(MetricsRegistry.JOBS)
        assert observed.engine_summary() == {
            "jobs": jobs,
            "tasks": session.engine.metrics.get(MetricsRegistry.TASKS),
            "attempts": session.engine.metrics.get(MetricsRegistry.TASKS),
            "retried": 0,
        }
        assert jobs == 2

    def test_phase_stats_canonical_order(self):
        observed = ObservedRun(span_durations=[
            ("phase:noise", 0.1), ("phase:map", 0.2), ("other", 0.3),
        ])
        assert [s.name for s in observed.phase_stats()] == [
            "phase:map", "phase:noise",
        ]

    def test_span_stats_aggregate(self):
        observed = ObservedRun(span_durations=[
            ("a", 1.0), ("a", 3.0), ("b", 2.0),
        ])
        by_name = {s.name: s for s in observed.span_stats()}
        assert by_name["a"].count == 2
        assert by_name["a"].total_seconds == 4.0
        assert by_name["a"].mean_seconds == 2.0
        assert by_name["a"].max_seconds == 3.0
        assert by_name["b"].count == 1

    def test_engine_line_of_spans_without_task_attempts(self):
        # an engine.job span written before 1.30.0 has no task_attempts:
        # its tasks count as its attempts
        observed = ObservedRun(engine_jobs=[
            {"partitions": 2}, {"partitions": 3, "task_attempts": 5},
        ])
        assert observed.engine_summary() == {
            "jobs": 2, "tasks": 5, "attempts": 7, "retried": 2,
        }
        assert "engine jobs: 2 jobs, 5 tasks, 7 attempts (2 retried)" in (
            observed.render_text().splitlines()
        )

    def test_no_engine_job_no_engine_line(self):
        observed = ObservedRun(span_durations=[("phase:map", 0.001)])
        assert observed.engine_summary() == {
            "jobs": 0, "tasks": 0, "attempts": 0, "retried": 0,
        }
        assert "engine jobs" not in observed.render_text()

    def test_render_text_empty(self):
        assert "nothing to report" in ObservedRun().render_text()

    def test_per_query_table_shows_a_clamp_and_a_jump(self):
        ledger = PrivacyLedger()
        steady = [(2.0, False), (2.0, True), (2.0, False), (2.0, True)]
        for width, clamped in steady:
            ledger.append(_entry(len(ledger), query="clamps",
                                 sensitivity=width, clamped=clamped))
        # a replay and a refusal count beside the releases, not in them
        ledger.append(_entry(len(ledger), query="clamps", epsilon=0.0,
                             cache_hit=True, sensitivity=50.0))
        ledger.append(_entry(len(ledger), query="clamps", epsilon=0.0,
                             refused=True, sensitivity=50.0))
        for width in (3.0, 3.0, 3.0, 3.0, 30.0):
            ledger.append(_entry(len(ledger), query="jumps",
                                 sensitivity=width))
        observed = from_live(ledger=ledger)
        clamps, jumps = observed.query_summary()
        assert clamps == {
            "query": "clamps", "releases": 4, "replays": 1, "refused": 1,
            "clamped": 2, "clamp_fraction": 0.5, "sensitivity_median": 2.0,
            "sensitivity_max": 2.0, "sensitivity_max_over_median": 1.0,
        }
        assert jumps == {
            "query": "jumps", "releases": 5, "replays": 0, "refused": 0,
            "clamped": 0, "clamp_fraction": 0.0, "sensitivity_median": 3.0,
            "sensitivity_max": 30.0, "sensitivity_max_over_median": 10.0,
        }
        table = observed.render_text().split(QUERY_TABLE_TITLE + ":\n")[1]
        rows = [line.split()[::2] for line in table.splitlines()[2:4]]
        assert rows == [
            ["clamps", "4", "1", "1", "2", "2", "1", "2", "0.5"],
            ["jumps", "5", "0", "0", "3", "30", "10", "0", "0"],
        ]
        assert json.loads(observed.render_json())["queries"] == [
            clamps, jumps,
        ]

    def test_per_query_table_without_a_charged_release(self):
        ledger = PrivacyLedger()
        ledger.append(_entry(0, refused=True, epsilon=0.0))
        ledger.append(_entry(1, query="zero", sensitivity=0.0))
        refused, zero = from_live(ledger=ledger).query_summary()
        assert refused["releases"] == 0 and refused["refused"] == 1
        assert refused["sensitivity_median"] is None
        assert refused["sensitivity_max_over_median"] is None
        assert refused["clamp_fraction"] is None
        assert zero["sensitivity_median"] == 0.0
        assert zero["sensitivity_max_over_median"] is None

    def test_a_ledger_with_alerts_in_its_header_still_reports(self, capsys):
        # written by 1.28.0, whose alert rules kept their firings in
        # the ledger header; a later reader keeps the header as it is
        path = os.path.join(_HERE, "data", "ledger_1.28.0_alerts.jsonl")
        observed = ObservedRun.from_artifacts(ledger_path=path)
        assert observed.header["alerts"][0]["rule"] == "sensitivity-drift"
        (row,) = observed.query_summary()
        assert row["query"] == "tpch1" and row["releases"] == 2
        assert row["sensitivity_max_over_median"] == pytest.approx(9 / 5.5)
        assert main(["report", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert QUERY_TABLE_TITLE in out
        assert "privacy ledger entries" in out
        assert main(["report", "--ledger", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == [row]

    def test_a_ledger_with_counters_in_its_header_still_reports(
        self, capsys
    ):
        # written by 1.29.0, which rewrote seven engine-counter copies
        # into the ledger header on every release; a later reader keeps
        # the header as it is
        path = os.path.join(
            _HERE, "data", "ledger_1.29.0_header_counters.jsonl"
        )
        observed = ObservedRun.from_artifacts(ledger_path=path)
        assert observed.header["repro_version"] == "1.29.0"
        assert observed.header["incremental"] is True
        assert observed.header["incremental_records_mapped"] == 40
        assert observed.header["incremental_records_reused"] == 440
        for key in ("incremental_delta_fraction", "sql_plan_cache_hits",
                    "sql_plan_cache_misses", "sql_plan_cache_evictions"):
            assert key in observed.header
        (row,) = observed.query_summary()
        assert row["query"] == "tpch6"
        assert (row["releases"], row["replays"], row["refused"]) == (3, 0, 0)
        assert (row["clamped"], row["sensitivity_max"]) == (
            1, pytest.approx(5587.2878)
        )
        assert main(["report", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert QUERY_TABLE_TITLE in out
        assert "privacy ledger entries" in out
        assert main(["report", "--ledger", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == [row]
        assert payload["header"]["incremental_records_mapped"] == 40

    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_from_live_reads_what_from_artifacts_reads(self, name, tmp_path):
        """A run with an append, reported live and from its files."""
        workload = workload_by_name(name)
        tables = workload.make_tables(400, 5)
        rows = tables[workload.query.protected_table]
        held = rows[len(rows) - max(2, len(rows) // 10):]
        del rows[len(rows) - len(held):]
        header = run_header(command="run", workload=name)
        tracer = Tracer(header=header)
        ledger = PrivacyLedger(header=header)
        session = UPASession(
            UPAConfig(sample_size=50, seed=7), tracer=tracer, ledger=ledger,
        )
        session.run(workload.query, tables, epsilon=0.4)
        try:
            session.append(held, epsilon=0.4)
        except DPError:
            pass  # refused: still a ledger row and a traced release
        assert find(tracer, "phase:incremental_delta")
        trace_path, ledger_path = tmp_path / "t.json", tmp_path / "l.jsonl"
        tracer.write_chrome_trace(str(trace_path))
        ledger.write_jsonl(str(ledger_path))
        live = from_live(tracer, ledger)
        read = ObservedRun.from_artifacts(str(trace_path), str(ledger_path))
        assert live.to_dict() == read.to_dict()
        assert live.render_text() == read.render_text()
        assert live.to_dict()["engine"]["jobs"] == 4

    def test_a_truncated_ledger_reports_its_valid_prefix(self, tmp_path):
        ledger = PrivacyLedger()
        for sequence in range(3):
            ledger.append(_entry(sequence, clamped=sequence == 0))
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(str(path))
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 40])  # the last entry cut mid-line
        with pytest.warns(RuntimeWarning):
            observed = ObservedRun.from_artifacts(ledger_path=str(path))
        (row,) = observed.query_summary()
        assert row["releases"] == 2
        assert row["clamp_fraction"] == 0.5

    def test_render_json_round_trips(self, observed_session):
        _, tracer, ledger, _, _ = observed_session
        observed = from_live(tracer, ledger)
        payload = json.loads(observed.render_json())
        assert len(payload["phases"]) == len(PHASE_ORDER)
        assert payload["ledger"]["totals"]["entries"] == 2
        assert payload["engine"] == observed.engine_summary()
        assert "metrics" not in payload

    def test_from_artifacts_round_trip(self, tmp_path, observed_session):
        _, tracer, ledger, _, _ = observed_session
        trace_path = tmp_path / "t.json"
        ledger_path = tmp_path / "l.jsonl"
        tracer.write_chrome_trace(str(trace_path))
        ledger.write_jsonl(str(ledger_path))
        observed = ObservedRun.from_artifacts(
            trace_path=str(trace_path), ledger_path=str(ledger_path)
        )
        assert [s.name for s in observed.phase_stats()] == list(PHASE_ORDER)
        assert observed.ledger_totals["entries"] == 2
        text = observed.render_text()
        assert "pipeline phases" in text
        assert "privacy ledger totals" in text


# ---------------------------------------------------------------------------
# The per-query table over real releases
# ---------------------------------------------------------------------------

_WORKLOADS = [w.name for w in all_workloads()]


def _released_ledger(workload):
    """Ledger and accountant of x, x again (a replay) and x minus 1, 2
    and 3 records, which RANGE ENFORCER releases or refuses."""
    tables = workload.make_tables(400, 5)
    protected = workload.query.protected_table
    ledger = PrivacyLedger()
    accountant = PrivacyAccountant(total_epsilon=100.0)
    session = UPASession(
        UPAConfig(sample_size=50, seed=7), ledger=ledger,
        accountant=accountant,
    )
    session.run(workload.query, tables, epsilon=0.4)
    session.run(workload.query, tables, epsilon=0.4)
    for removed in (1, 2, 3):
        neighbour = dict(tables)
        neighbour[protected] = tables[protected][:-removed]
        try:
            session.run(workload.query, neighbour, epsilon=0.4)
        except DPError:
            pass  # refused: a row with nothing charged
    return ledger, accountant


class TestPerQueryTableOnReleases:
    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_row_recounts_the_ledger_and_the_accountant(self, name):
        workload = workload_by_name(name)
        ledger, accountant = _released_ledger(workload)
        charged = [
            e for e in ledger.entries() if not (e.cache_hit or e.refused)
        ]
        (row,) = from_live(ledger=ledger).query_summary()
        assert row["query"] == workload.query.name
        assert row["replays"] == 1
        assert row["releases"] + row["refused"] == 4
        assert row["releases"] == len(charged)
        assert row["releases"] == len(accountant.history())
        widths = [e.local_sensitivity for e in charged]
        assert row["sensitivity_median"] == pytest.approx(np.median(widths))
        assert row["sensitivity_max"] == max(widths)
        assert row["clamped"] == sum(e.clamped for e in charged)
        assert row["clamp_fraction"] == row["clamped"] / len(charged)

    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_row_reads_back_from_the_jsonl(self, name, tmp_path):
        ledger, _ = _released_ledger(workload_by_name(name))
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(str(path))
        read_back = ObservedRun.from_artifacts(ledger_path=str(path))
        assert read_back.query_summary() == (
            from_live(ledger=ledger).query_summary()
        )

    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_repro_report_prints_the_row_of_a_run(
        self, name, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.json"
        ledger_path = tmp_path / "l.jsonl"
        assert main([
            "run", name, "--scale", "400", "--sample-size", "50",
            "--trace", str(trace_path), "--ledger", str(ledger_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--ledger", str(ledger_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # CI greps this line of `repro report --ledger BENCH_ledger.jsonl`
        title = lines.index(QUERY_TABLE_TITLE + ":")
        row = lines[title + 3].split("|")
        assert [cell.strip() for cell in row[:4]] == [
            workload_by_name(name).query.name, "1", "0", "0",
        ]
        assert main([
            "report", "--trace", str(trace_path),
            "--ledger", str(ledger_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["phases"]] == list(PHASE_ORDER)
        (entry,) = PrivacyLedger.read_jsonl(str(ledger_path)).entries()
        assert payload["queries"] == [{
            "query": entry.query, "releases": 1, "replays": 0,
            "refused": 0, "clamped": int(entry.clamped),
            "clamp_fraction": float(entry.clamped),
            "sensitivity_median": entry.local_sensitivity,
            "sensitivity_max": entry.local_sensitivity,
            "sensitivity_max_over_median": (
                1.0 if entry.local_sensitivity else None
            ),
        }]

    @pytest.mark.parametrize("name", [
        "tpch1", "tpch4", "tpch6", "tpch11", "tpch13", "tpch16", "tpch21",
        "tpch12", "tpch14",
    ])
    def test_sql_text_and_its_replay_share_one_row(self, name):
        from tests.sql_extensions import EXTENSIONS

        if name in EXTENSIONS:
            text, protected, sampler = EXTENSIONS[name]
        else:
            query = query_by_name(name)
            text, protected, sampler = (
                query.sql_text(), query.protected_table,
                query.sample_domain_record,
            )
        tables = TPCHGenerator(TPCHConfig(scale_rows=400, seed=5)).generate()
        ledger = PrivacyLedger()
        session = UPASession(UPAConfig(sample_size=50, seed=7), ledger=ledger)
        for _ in range(2):  # the second compiles to the same plan: a replay
            result = session.run_sql(
                text, tables, protected_table=protected, epsilon=0.4,
                domain_sampler=sampler,
            )
        (row,) = from_live(ledger=ledger).query_summary()
        assert row["query"].startswith("sql:")
        assert (row["releases"], row["replays"], row["refused"]) == (1, 1, 0)
        assert row["sensitivity_median"] == result.local_sensitivity
        assert row["clamped"] == int(result.enforcement.clamped)

    @pytest.mark.parametrize("name", ["tpch1", "tpch6", "kmeans", "linreg"])
    def test_repro_report_counts_the_appends_of_a_run(
        self, name, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.json"
        ledger_path = tmp_path / "l.jsonl"
        assert main([
            "run", name, "--scale", "400", "--sample-size", "100",
            "--append", "40", "--append-steps", "2",
            "--trace", str(trace_path), "--ledger", str(ledger_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "--trace", str(trace_path),
            "--ledger", str(ledger_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["queries"]
        assert (row["releases"], row["replays"], row["refused"]) == (3, 0, 0)
        counts = {p["name"]: p["count"] for p in payload["phases"]}
        assert counts["phase:incremental_delta"] == 2
        assert counts["phase:partition_sample"] == 3

    def test_queries_keep_first_seen_order(self):
        ledger = PrivacyLedger()
        for sequence, query in enumerate(["b", "a", "b", "c", "a"]):
            ledger.append(_entry(sequence, query=query))
        rows = from_live(ledger=ledger).query_summary()
        assert [r["query"] for r in rows] == ["b", "a", "c"]
        assert [r["releases"] for r in rows] == [2, 2, 1]

    def test_no_ledger_no_table(self):
        observed = ObservedRun(span_durations=[("phase:map", 0.001)])
        assert observed.query_summary() == []
        assert QUERY_TABLE_TITLE not in observed.render_text()
        assert json.loads(observed.render_json())["queries"] == []

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.tuples(
            st.sampled_from(["q1", "q2", "q3"]),
            st.sampled_from(["release", "replay", "refused"]),
            st.floats(0.0, 1e6, allow_nan=False),
            st.booleans(),
        ),
        max_size=30,
    ))
    def test_columns_hold_their_invariants(self, rows):
        ledger = PrivacyLedger()
        for sequence, (query, kind, width, clamped) in enumerate(rows):
            ledger.append(_entry(
                sequence, query=query, sensitivity=width,
                clamped=clamped and kind == "release",
                cache_hit=kind == "replay", refused=kind == "refused",
            ))
        summary = from_live(ledger=ledger).query_summary()
        assert sum(
            r["releases"] + r["replays"] + r["refused"] for r in summary
        ) == len(rows)
        for r in summary:
            if not r["releases"]:
                assert r["sensitivity_median"] is None
                assert r["clamp_fraction"] is None
                continue
            # the median interpolates: allow it one rounding
            slack = 1.0 + 1e-12
            assert r["sensitivity_median"] <= r["sensitivity_max"] * slack
            assert 0.0 <= r["clamp_fraction"] <= 1.0
            ratio = r["sensitivity_max_over_median"]
            assert (ratio is None) == (r["sensitivity_median"] == 0.0)
            assert ratio is None or ratio * slack >= 1.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestObservabilityCLI:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_run_writes_trace_and_ledger(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        ledger_path = tmp_path / "l.jsonl"
        assert main([
            "run", "tpch1", "--scale", "300", "--sample-size", "50",
            "--trace", str(trace_path), "--ledger", str(ledger_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert "privacy ledger written" in out

        with open(trace_path) as handle:
            doc = json.load(handle)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert set(PHASE_ORDER) <= names
        assert doc["metadata"]["workload"] == "tpch1"
        assert "repro_version" in doc["metadata"]

        ledger = PrivacyLedger.read_jsonl(str(ledger_path))
        assert len(ledger) == 1
        entry = ledger.entries()[0]
        assert entry.query == "tpch1"
        assert entry.fitted_mean and entry.fitted_std
        assert entry.range_lower and entry.range_upper
        assert entry.local_sensitivity > 0

    def test_run_sql_traces_compilation(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main([
            "run-sql", "SELECT COUNT(*) AS n FROM lineitem",
            "--protect", "lineitem", "--scale", "300",
            "--trace", str(trace_path),
        ]) == 0
        with open(trace_path) as handle:
            doc = json.load(handle)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "sqlbridge.compile" in names
        assert set(PHASE_ORDER) <= names

    def test_compare_traces_baselines(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main([
            "compare", "tpch1", "--scale", "300",
            "--trace", str(trace_path),
        ]) == 0
        with open(trace_path) as handle:
            doc = json.load(handle)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "baseline.bruteforce" in names
        assert "baseline.flex" in names
        assert set(PHASE_ORDER) <= names  # all in ONE comparable trace

    def test_report_from_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        ledger_path = tmp_path / "l.jsonl"
        main([
            "run", "tpch1", "--scale", "300", "--sample-size", "50",
            "--trace", str(trace_path), "--ledger", str(ledger_path),
        ])
        capsys.readouterr()
        assert main([
            "report", "--trace", str(trace_path),
            "--ledger", str(ledger_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline phases" in out
        assert "phase:partition_sample" in out
        assert "privacy ledger totals" in out
        assert QUERY_TABLE_TITLE in out

        assert main([
            "report", "--trace", str(trace_path),
            "--ledger", str(ledger_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["phases"]) == len(PHASE_ORDER)
        (row,) = payload["queries"]
        assert row["query"] == "tpch1" and row["releases"] == 1

    def test_report_of_a_trace_alone_has_no_query_table(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.json"
        assert main([
            "compare", "tpch1", "--scale", "300", "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline phases" in out
        assert QUERY_TABLE_TITLE not in out

    def test_report_of_an_empty_ledger(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "privacy ledger totals" in out
        assert QUERY_TABLE_TITLE not in out
        assert main(["report", "--ledger", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["queries"] == []

    def test_run_sql_ledger_reports_its_row(self, tmp_path, capsys):
        ledger_path = tmp_path / "l.jsonl"
        text = "SELECT COUNT(*) AS n FROM lineitem"
        assert main([
            "run-sql", text, "--protect", "lineitem", "--scale", "300",
            "--ledger", str(ledger_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--ledger", str(ledger_path), "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["queries"]
        assert row["query"] == "sql:" + text
        assert row["releases"] == 1

    def test_report_counts_the_engine_jobs_of_a_run(self, tmp_path, capsys):
        # a release maps S' in one engine job per stable partition, each
        # cut into the default two slice tasks
        trace_path = tmp_path / "t.json"
        ledger_path = tmp_path / "l.jsonl"
        assert main([
            "run", "tpch1", "--scale", "2000", "--sample-size", "200",
            "--trace", str(trace_path), "--ledger", str(ledger_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "--trace", str(trace_path),
            "--ledger", str(ledger_path),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "engine jobs: 2 jobs, 4 tasks, 4 attempts (0 retried)" in lines
        assert main(["report", "--trace", str(trace_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["engine"] == {
            "jobs": 2, "tasks": 4, "attempts": 4, "retried": 0,
        }

    @pytest.mark.parametrize("command", [
        ["run", "tpch1", "--scale", "300", "--sample-size", "50"],
        ["run-sql", "SELECT COUNT(*) AS n FROM lineitem",
         "--protect", "lineitem", "--scale", "300"],
        ["compare", "tpch1", "--scale", "300"],
    ], ids=["run", "run-sql", "compare"])
    def test_report_prints_the_engine_line(self, command, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(command + ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        with open(trace_path) as handle:
            doc = json.load(handle)
        jobs = [
            e["args"] for e in doc["traceEvents"] if e["name"] == "engine.job"
        ]
        assert jobs
        assert all(a["task_attempts"] == a["partitions"] for a in jobs)
        tasks = sum(a["partitions"] for a in jobs)
        assert main(["report", "--trace", str(trace_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (
            f"engine jobs: {len(jobs)} jobs, {tasks} tasks, {tasks} "
            "attempts (0 retried)"
        ) in lines

    def test_report_requires_artifacts(self, capsys):
        assert main(["report"]) == 2
        assert "pass --trace" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", "--trace",
                     str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Every surface names a consumer (docs/observability.md)
# ---------------------------------------------------------------------------

_DOC = os.path.join(_HERE, os.pardir, "docs", "observability.md")


def _documented_consumers():
    """surface -> consumer, from the doc's "What each surface is for"."""
    with open(_DOC, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## What each surface is for", 1)[1]
    consumers = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            surface, consumer = (
                cell.strip() for cell in line.strip().strip("|").split("|", 1)
            )
            for name in re.findall(r"`([^`]+)`", surface):
                consumers[name] = consumer
    return consumers


def _surfaces():
    """Every observability flag of the CLI, and ``repro report``."""
    from repro import cli

    parser = argparse.ArgumentParser(add_help=False)
    cli._add_observability_args(parser)
    flags = [action.option_strings[0] for action in parser._actions]
    return flags + ["repro report"]


@pytest.mark.parametrize("surface", _surfaces())
def test_every_surface_names_a_consumer(surface):
    assert _documented_consumers().get(surface), (
        f"docs/observability.md names no consumer for {surface}"
    )
