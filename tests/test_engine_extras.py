"""Tests for engine extras: aggregate's per-task zero."""


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
