"""Unit tests for key-value RDD operations (shuffle-backed)."""

import pytest

from repro.engine import EngineContext
from repro.engine.metrics import MetricsRegistry
from repro.engine.partitioner import HashPartitioner


@pytest.fixture
def pairs(ctx):
    return ctx.parallelize(
        [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)], 3
    )


class TestAggregationsByKey:
    def test_reduce_by_key(self, pairs):
        out = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert out == {"a": 4, "b": 7, "c": 4}

    def test_reduce_by_key_partition_count(self, pairs):
        out = pairs.reduce_by_key(lambda a, b: a + b)
        assert out.num_partitions == pairs.num_partitions == 3
        assert dict(out.collect()) == {"a": 4, "b": 7, "c": 4}

    def test_combine_by_key_groups_values(self, pairs):
        """List combiners (cogroup's): every value lands under its key."""

        def append(acc, v):
            acc.append(v)
            return acc

        def extend(a, b):
            a.extend(b)
            return a

        out = {
            k: sorted(v)
            for k, v in pairs.combine_by_key(
                lambda v: [v], append, extend
            ).collect()
        }
        assert out == {"a": [1, 3], "b": [2, 5], "c": [4]}

    def test_combine_by_key_counts(self, pairs):
        out = dict(
            pairs.combine_by_key(
                lambda v: 1, lambda acc, v: acc + 1, lambda a, b: a + b
            ).collect()
        )
        assert out == {"a": 2, "b": 2, "c": 1}



class TestJoins:
    @pytest.fixture
    def left(self, ctx):
        return ctx.parallelize([(1, "a"), (2, "b"), (1, "c")], 2)

    @pytest.fixture
    def right(self, ctx):
        return ctx.parallelize([(1, "x"), (3, "y")], 2)

    def test_inner_join(self, left, right):
        out = sorted(left.join(right).collect())
        assert out == [(1, ("a", "x")), (1, ("c", "x"))]

    def test_cogroup(self, left, right):
        out = {
            k: (sorted(a), sorted(b))
            for k, (a, b) in left.cogroup(right).collect()
        }
        assert out == {
            1: (["a", "c"], ["x"]),
            2: (["b"], []),
            3: ([], ["y"]),
        }

    def test_join_one_to_many_multiplicity(self, ctx):
        left = ctx.parallelize([(1, "l")] * 3, 2)
        right = ctx.parallelize([(1, "r")] * 4, 2)
        assert left.join(right).count() == 12

    def test_join_empty_side(self, ctx, left=None):
        left_rdd = ctx.parallelize([(1, "a")])
        assert left_rdd.join(ctx.parallelize([])).collect() == []


class TestShuffleBehaviour:
    def test_shuffle_counted_in_metrics(self, ctx):
        pairs = ctx.parallelize([("k", i) for i in range(10)], 4)
        before = ctx.metrics.get(MetricsRegistry.SHUFFLES)
        pairs.reduce_by_key(lambda a, b: a + b).collect()
        assert ctx.metrics.get(MetricsRegistry.SHUFFLES) == before + 1

    def test_map_side_combine_reduces_traffic(self, ctx):
        # 100 records, 1 key, 4 partitions: map-side combine sends at
        # most one record per map partition.
        pairs = ctx.parallelize([("k", 1)] * 100, 4)
        before = ctx.metrics.get(MetricsRegistry.RECORDS_SHUFFLED)
        pairs.reduce_by_key(lambda a, b: a + b).collect()
        shuffled = ctx.metrics.get(MetricsRegistry.RECORDS_SHUFFLED) - before
        assert shuffled <= 4

    def test_shuffle_executed_once_per_shuffled_rdd(self, ctx):
        pairs = ctx.parallelize([("a", 1), ("b", 2)], 2)
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        before = ctx.metrics.get(MetricsRegistry.SHUFFLES)
        reduced.collect()
        reduced.collect()  # second action reuses stored shuffle output
        assert ctx.metrics.get(MetricsRegistry.SHUFFLES) == before + 1

    def test_same_key_lands_in_same_partition(self, ctx):
        pairs = ctx.parallelize([(i % 5, i) for i in range(100)], 4)
        grouped = pairs.cogroup(ctx.parallelize([(2, "x")], 1))
        partitioner = HashPartitioner(grouped.num_partitions)
        chunks = grouped.map_partitions(lambda it: [list(it)]).collect()
        assert sorted(k for chunk in chunks for k, _v in chunk) == [0, 1, 2, 3, 4]
        for split, chunk in enumerate(chunks):
            assert all(partitioner.partition(k) == split for k, _v in chunk)
