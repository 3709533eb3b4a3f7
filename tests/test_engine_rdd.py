"""Unit tests for core RDD transformations and actions."""

import pytest

from repro.common.errors import EngineError
from repro.engine import EngineContext
from repro.engine.partitioner import HashPartitioner


class TestBasicTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3]).map(lambda v: v * 2).collect() == [2, 4, 6]

    def test_map_preserves_order(self, ctx):
        data = list(range(97))
        assert ctx.parallelize(data, 5).map(lambda v: v).collect() == data

    def test_filter(self, ctx):
        out = ctx.parallelize(range(10)).filter(lambda v: v % 3 == 0).collect()
        assert out == [0, 3, 6, 9]

    def test_flat_map(self, ctx):
        out = ctx.parallelize([1, 2]).flat_map(lambda v: [v] * v).collect()
        assert out == [1, 2, 2]

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

    def test_key_by(self, ctx):
        out = ctx.parallelize(["ab", "c"]).key_by(len).collect()
        assert out == [(2, "ab"), (1, "c")]

    def test_union(self, ctx):
        left = ctx.parallelize([1, 2], 2)
        right = ctx.parallelize([3], 1)
        union = left.union(right)
        assert union.collect() == [1, 2, 3]
        assert union.num_partitions == 3

    def test_distinct(self, ctx):
        out = sorted(ctx.parallelize([3, 1, 3, 2, 1]).distinct().collect())
        assert out == [1, 2, 3]

    def test_zip_with_index(self, ctx):
        out = ctx.parallelize(list("abcd"), 3).zip_with_index().collect()
        assert out == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]

    def test_partition_by_preserves_records(self, ctx):
        pairs = [(v, v * v) for v in range(50)]
        rdd = ctx.parallelize(pairs, 2).partition_by(HashPartitioner(7))
        assert rdd.num_partitions == 7
        assert sorted(rdd.collect()) == pairs

    def test_coalesce(self, ctx):
        rdd = ctx.parallelize(range(10), 5).coalesce(2)
        assert rdd.num_partitions == 2
        assert sorted(rdd.collect()) == list(range(10))

    def test_coalesce_no_op_when_growing(self, ctx):
        rdd = ctx.parallelize(range(4), 2)
        assert rdd.coalesce(8) is rdd

    def test_sort_by_ascending(self, ctx):
        data = [5, 3, 8, 1, 9, 2]
        out = ctx.parallelize(data, 3).sort_by(lambda v: v).collect()
        assert out == sorted(data)

    def test_sort_by_descending(self, ctx):
        data = list(range(40))
        out = ctx.parallelize(data, 4).sort_by(lambda v: v, ascending=False)
        assert out.collect() == sorted(data, reverse=True)

    def test_sort_by_descending_take(self, ctx):
        """ORDER BY ... DESC LIMIT: a descending sort, then a prefix."""
        rdd = ctx.parallelize([3, 9, 1, 7], 2)
        assert rdd.sort_by(lambda v: v, ascending=False).take(2) == [9, 7]

    def test_sort_by_key_func(self, ctx):
        rdd = ctx.parallelize(["bb", "a", "ccc"], 2)
        assert rdd.sort_by(len, ascending=False).take(1) == ["ccc"]
        assert rdd.sort_by(len).collect() == ["a", "bb", "ccc"]

    def test_empty_rdd(self, ctx):
        assert ctx.parallelize([]).collect() == []
        assert ctx.parallelize([]).count() == 0
        assert ctx.union([]).collect() == []


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(123), 7).count() == 123

    def test_reduce(self, ctx):
        assert ctx.parallelize(range(1, 6)).reduce(lambda a, b: a * b) == 120

    def test_reduce_with_empty_partitions(self, ctx):
        # 2 records across 4 partitions: two partitions are empty.
        assert ctx.parallelize([10, 20], 4).reduce(lambda a, b: a + b) == 30

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(EngineError):
            ctx.parallelize([]).reduce(lambda a, b: a + b)

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
        assert rdd.reduce(min) == 1
        assert rdd.reduce(max) == 9
        assert total / count == 4.0

    def test_take(self, ctx):
        rdd = ctx.parallelize(range(100), 10)
        assert rdd.take(3) == [0, 1, 2]
        assert rdd.take(0) == []
        assert rdd.take(1000) == list(range(100))

    def test_first(self, ctx):
        assert ctx.parallelize([7, 8]).first() == 7
        with pytest.raises(EngineError):
            ctx.parallelize([]).first()

    def test_is_empty(self, ctx):
        assert ctx.parallelize([]).is_empty()
        assert not ctx.parallelize([1]).is_empty()

    def test_invalid_partition_count(self, ctx):
        with pytest.raises(EngineError):
            ctx.parallelize([1], 1).map(lambda v: v).coalesce(0).collect()
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
            .filter(lambda v: v % 2 == 0)
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
