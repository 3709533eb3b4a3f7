"""Tests for engine extras: aggregate's per-task zero, union-all SQL."""

import pytest

from repro.common.errors import AnalysisError
from repro.sql import SQLSession
from repro.sql.functions import AggregateSpec
from repro.sql.logical import Aggregate, Scan, Union


class TestAggregateZero:
    def test_zero_not_shared_between_partitions(self, ctx):
        """Regression: aggregate must clone a mutable zero per task."""

        def append(acc, v):
            acc.append(v)
            return acc

        def extend(a, b):
            a.extend(b)
            return a

        out = ctx.parallelize(range(10), 4).aggregate([], append, extend)
        assert sorted(out) == list(range(10))

    def test_aggregate_with_list_zero(self, ctx):
        out = ctx.parallelize(range(6), 3).aggregate(
            [], lambda acc, v: acc + [v], lambda a, b: a + b
        )
        assert sorted(out) == list(range(6))


class TestUnionAll:
    @pytest.fixture
    def session(self):
        sess = SQLSession()
        sess.create_table("a", [{"x": 1, "y": "p"}, {"x": 2, "y": "q"}])
        sess.create_table("b", [{"x": 10, "y": "r"}])
        return sess

    def test_sql_union_all(self, session):
        rows = session.sql(
            "SELECT x FROM a UNION ALL SELECT x FROM b"
        ).collect()
        assert sorted(r["x"] for r in rows) == [1, 2, 10]

    def test_union_all_then_aggregate(self, session):
        """An aggregate over a union: a shape SQL text does not build
        (it puts UNION ALL on top), run from the plan constructors."""
        scans = [Scan(n, session.catalog.table(n).schema) for n in "ab"]
        plan = Aggregate(
            Union(scans), [], [AggregateSpec("count", None, "n")]
        )
        assert session.execute_plan(plan).collect() == [{"n": 3}]

    def test_union_all_schema_mismatch(self, session):
        session.create_table("c", [{"z": 1}])
        with pytest.raises(AnalysisError, match="UNION ALL column mismatch"):
            session.sql("SELECT x, y FROM a UNION ALL SELECT z FROM c")

    def test_three_way_sql_union(self, session):
        session.create_table("c", [{"x": 99, "y": "s"}])
        rows = session.sql(
            "SELECT x FROM a UNION ALL SELECT x FROM b "
            "UNION ALL SELECT x FROM c"
        ).collect()
        assert len(rows) == 4

    def test_union_all_optimizes_consistently(self, session):
        df = session.sql("SELECT x, y FROM a UNION ALL SELECT x, y FROM b")
        assert df.collect() == session.executor.execute(df.plan).collect()
