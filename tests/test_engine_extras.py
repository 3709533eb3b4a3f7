"""Tests for engine extras: stats, cartesian, debug string, union-all SQL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AnalysisError
from repro.engine import EngineContext
from repro.engine.rdd import StatCounter
from repro.sql import SQLSession


class TestStatCounter:
    def test_single_pass_statistics(self, ctx):
        rdd = ctx.parallelize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0], 3)
        st_ = rdd.stats()
        assert st_.count == 8
        assert st_.mean == pytest.approx(5.0)
        assert st_.stdev == pytest.approx(2.0)
        assert (st_.min, st_.max) == (2.0, 9.0)

    def test_empty(self):
        counter = StatCounter()
        assert counter.count == 0
        assert counter.variance != counter.variance  # NaN

    def test_merge_empty_into_full(self):
        a = StatCounter()
        for v in (1.0, 2.0):
            a.merge_value(v)
        a.merge_stats(StatCounter())
        assert a.count == 2

    @given(
        left=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        right=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_sequential(self, left, right):
        merged = StatCounter()
        for v in left:
            merged.merge_value(v)
        other = StatCounter()
        for v in right:
            other.merge_value(v)
        merged.merge_stats(other)

        sequential = StatCounter()
        for v in left + right:
            sequential.merge_value(v)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(sequential.mean, abs=1e-9)
        assert merged.variance == pytest.approx(sequential.variance, abs=1e-6)

    def test_zero_not_shared_between_partitions(self, ctx):
        """Regression: fold/aggregate must clone mutable zero values."""
        out = ctx.parallelize(range(10), 4).fold([], lambda a, b: a + [b] if not isinstance(b, list) else a + b)
        assert sorted(v for v in out) == list(range(10))

    def test_aggregate_with_list_zero(self, ctx):
        out = ctx.parallelize(range(6), 3).aggregate(
            [], lambda acc, v: acc + [v], lambda a, b: a + b
        )
        assert sorted(out) == list(range(6))


class TestCartesianAndDebug:
    def test_cartesian(self, ctx):
        out = sorted(
            ctx.parallelize([1, 2], 2).cartesian(
                ctx.parallelize(["a", "b"])
            ).collect()
        )
        assert out == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]

    def test_cartesian_counts(self, ctx):
        left = ctx.parallelize(range(5), 2)
        right = ctx.parallelize(range(7), 3)
        assert left.cartesian(right).count() == 35

    def test_debug_string_shows_lineage(self, ctx):
        rdd = ctx.parallelize([1]).map(lambda v: v).filter(lambda v: True)
        text = rdd.to_debug_string()
        assert "ParallelCollectionRDD" in text
        assert text.count("MapPartitionsRDD") == 2

    def test_debug_string_marks_cached(self, ctx):
        rdd = ctx.parallelize([1]).map(lambda v: v).cache()
        assert "[cached]" in rdd.to_debug_string()


class TestUnionAll:
    @pytest.fixture
    def session(self):
        sess = SQLSession()
        sess.create_table("a", [{"x": 1, "y": "p"}, {"x": 2, "y": "q"}])
        sess.create_table("b", [{"x": 10, "y": "r"}])
        return sess

    def test_dataframe_union_all(self, session):
        df = session.table("a").union_all(session.table("b"))
        assert df.count() == 3

    def test_sql_union_all(self, session):
        rows = session.sql(
            "SELECT x FROM a UNION ALL SELECT x FROM b"
        ).collect()
        assert sorted(r["x"] for r in rows) == [1, 2, 10]

    def test_union_all_then_aggregate(self, session):
        total = session.table("a").union_all(session.table("b"))
        from repro.sql import count_star

        assert total.agg(count_star("n")).scalar() == 3

    def test_union_all_schema_mismatch(self, session):
        session.create_table("c", [{"z": 1}])
        with pytest.raises(AnalysisError):
            session.table("a").union_all(session.table("c"))

    def test_three_way_sql_union(self, session):
        session.create_table("c", [{"x": 99, "y": "s"}])
        rows = session.sql(
            "SELECT x FROM a UNION ALL SELECT x FROM b "
            "UNION ALL SELECT x FROM c"
        ).collect()
        assert len(rows) == 4

    def test_union_all_optimizes_consistently(self, session):
        df = session.table("a").union_all(session.table("b"))
        assert df.collect() == session.executor.execute(df.plan).collect()
