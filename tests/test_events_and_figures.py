"""Tests for the job event listener and the text figure renderer."""

import numpy as np
import pytest

from repro.analysis.figures import ascii_histogram, render_fig3_panel
from repro.engine import EngineContext
from repro.engine.events import JobListener


class TestJobListener:
    def test_records_jobs(self, ctx):
        listener = JobListener()
        ctx.install_job_listener(listener)
        ctx.parallelize(range(10), 2).map(lambda v: v).collect()
        events = listener.events()
        assert len(events) == 1
        event = events[0]
        assert event.num_partitions == 2
        assert event.task_attempts == 2
        assert event.rdd_type == "MapPartitionsRDD"
        assert event.duration_seconds >= 0

    def test_multiple_jobs_accumulate(self, ctx):
        listener = JobListener()
        ctx.install_job_listener(listener)
        rdd = ctx.parallelize(range(10), 2)
        rdd.count()
        rdd.collect()
        assert len(listener.events()) == 2

    def test_retries_counted_in_attempts(self):
        from repro.common.config import EngineConfig
        from repro.engine import FaultInjector

        ctx = EngineContext(EngineConfig(max_task_retries=5))
        listener = JobListener()
        ctx.install_job_listener(listener)
        ctx.install_fault_injector(
            FaultInjector(failure_probability=0.5, max_failures=3, seed=1)
        )
        ctx.parallelize(range(20), 4).collect()
        event = listener.events()[0]
        assert event.task_attempts > 4  # 4 tasks + at least one retry

    def test_capacity_bounded(self):
        listener = JobListener(capacity=3)
        from repro.engine.events import JobEvent

        for i in range(10):
            listener.record(JobEvent(i, i, "X", 1, 0.0, 1))
        assert len(listener.events()) == 3
        # strictly the newest events, oldest first
        assert [e.stage_id for e in listener.events()] == [7, 8, 9]

    def test_capacity_eviction_under_concurrent_record(self):
        """Eviction stays ordered and bounded with racing writers."""
        import threading

        from repro.engine.events import JobEvent

        capacity = 16
        per_thread = 200
        num_threads = 8
        listener = JobListener(capacity=capacity)

        def write(thread_id: int) -> None:
            for i in range(per_thread):
                listener.record(
                    JobEvent(thread_id * per_thread + i, thread_id,
                             "X", 1, 0.0, 1)
                )

        threads = [
            threading.Thread(target=write, args=(t,))
            for t in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        events = listener.events()
        assert len(events) == capacity
        # Each thread writes increasing stage_ids, so whatever survives
        # from one thread must be an ordered suffix of its stream —
        # i.e. eviction dropped that thread's *oldest* events first.
        for thread_id in range(num_threads):
            mine = [e.stage_id for e in events if e.rdd_id == thread_id]
            assert mine == sorted(mine)
            if mine:
                assert mine[-1] == (thread_id + 1) * per_thread - 1

    def test_summary_and_slow_jobs(self, ctx):
        listener = JobListener()
        ctx.install_job_listener(listener)
        ctx.parallelize(range(5), 1).collect()
        assert "stage=" in listener.summary()

    def test_clear(self, ctx):
        listener = JobListener()
        ctx.install_job_listener(listener)
        ctx.parallelize([1], 1).collect()
        listener.clear()
        assert listener.events() == []


class TestAsciiFigures:
    def test_histogram_peak_marked_dense(self):
        values = np.concatenate([np.zeros(100), np.ones(2) * 10])
        strip = ascii_histogram(values, width=20)
        assert len(strip) == 20
        assert strip[0] == "@"  # the dense bin

    def test_range_markers_present(self):
        values = np.linspace(0, 10, 50)
        strip = ascii_histogram(values, lower=0.0, upper=10.0, width=30)
        assert strip[0] == "["
        assert strip[-1] == "]"

    def test_constant_values(self):
        strip = ascii_histogram(np.array([5.0, 5.0]), width=10)
        assert len(strip) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_histogram(np.array([]))

    def test_render_fig3_panel(self, tpch_tables):
        from repro.analysis import study_neighbourhood
        from repro.tpch.workload import query_by_name

        study = study_neighbourhood(
            query_by_name("tpch1"), tpch_tables,
            sample_sizes=(50,), addition_samples=50,
        )
        panel = render_fig3_panel(study)
        assert "tpch1" in panel
        assert "coverage" in panel
        assert "n=50" in panel
