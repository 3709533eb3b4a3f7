"""Unit tests for core RDD transformations and actions."""

import pytest

from repro.common.errors import EngineError


class TestBasicTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3]).map(lambda v: v * 2).collect() == [2, 4, 6]

    def test_map_preserves_order(self, ctx):
        data = list(range(97))
        assert ctx.parallelize(data, 5).map(lambda v: v).collect() == data

    def test_map_partitions(self, ctx):
        rdd = ctx.parallelize(range(8), 4)
        sums = rdd.map_partitions(lambda it: [sum(it)]).collect()
        assert sum(sums) == sum(range(8))
        assert len(sums) == 4

    def test_parallelize_slices_contiguously(self, ctx):
        chunks = ctx.parallelize(range(6), 3).map_partitions(
            lambda it: [list(it)]
        ).collect()
        assert chunks == [[0, 1], [2, 3], [4, 5]]

    def test_parallelize_keeps_its_own_copy(self, ctx):
        data = [1, 2, 3, 4]
        rdd = ctx.parallelize(data, 2)
        data.append(5)
        data[0] = 99
        assert rdd.collect() == [1, 2, 3, 4]

    def test_empty_rdd(self, ctx):
        assert ctx.parallelize([]).collect() == []
        assert ctx.parallelize([]).count() == 0


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(123), 7).count() == 123

    def test_aggregate(self, ctx):
        total, count = ctx.parallelize(range(10), 3).aggregate(
            (0, 0),
            lambda acc, v: (acc[0] + v, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert (total, count) == (45, 10)

    def test_aggregate_over_empty_partitions(self, ctx):
        """More partitions than records: empty tasks return the zero."""
        rdd = ctx.parallelize(range(3), 5)
        assert rdd.aggregate(0, lambda a, v: a + v, lambda a, b: a + b) == 3
        tasks = rdd.aggregate([], lambda a, v: a, lambda a, b: a + [b])
        assert tasks == [[]] * 5

    def test_aggregate_empty_returns_zero(self, ctx):
        out = ctx.parallelize([]).aggregate(
            (0, 0),
            lambda acc, v: (acc[0] + v, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert out == (0, 0)

    def test_sum_min_max_mean(self, ctx):
        rdd = ctx.parallelize([4, 1, 9, 2], 2)
        total, count = rdd.aggregate(
            (0, 0),
            lambda acc, v: (acc[0] + v, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert total == 16
        assert rdd.aggregate(float("inf"), min, min) == 1
        assert rdd.aggregate(float("-inf"), max, max) == 9
        assert total / count == 4.0

    def test_invalid_partition_count(self, ctx):
        for bad in (0, -2, 2.5, True, False, "3"):
            with pytest.raises(EngineError):
                ctx.parallelize([1], bad)
        assert ctx.parallelize([1], 1).num_partitions == 1
        assert ctx.parallelize([1]).num_partitions == 4


class TestLineage:
    def test_chained_transformations(self, ctx):
        out = (
            ctx.parallelize(range(20), 4)
            .map(lambda v: v + 1)
            .map_partitions(lambda it: (v for v in it if v % 2 == 0))
            .map(lambda v: v * 10)
            .collect()
        )
        assert out == [v * 10 for v in range(1, 21) if v % 2 == 0]

    def test_dependencies_recorded(self, ctx):
        base = ctx.parallelize([1, 2])
        mapped = base.map(lambda v: v)
        assert mapped.dependencies == (base,)

    def test_rdd_ids_unique(self, ctx):
        ids = {ctx.parallelize([1]).rdd_id for _ in range(10)}
        assert len(ids) == 10

    def test_lazy_evaluation(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(3)).map(lambda v: calls.append(v) or v)
        assert calls == []  # nothing computed yet
        rdd.collect()
        assert sorted(calls) == [0, 1, 2]
