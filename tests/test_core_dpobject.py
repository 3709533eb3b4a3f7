"""Tests for the Table I operator API (dpread / DPObject / DPObjectKV)."""

import pytest

from repro.common.errors import DPError
from repro.core.dpobject import dpread
from repro.engine import EngineContext
from repro.engine.metrics import MetricsRegistry


@pytest.fixture
def engine():
    return EngineContext()


class TestDpread:
    def test_split_sizes(self, engine):
        dpo = dpread(engine.parallelize(range(100)), sample_size=10, seed=0)
        assert len(dpo.sampled) == 10
        assert dpo.remaining.count() == 90

    def test_sample_capped_at_dataset(self, engine):
        dpo = dpread(engine.parallelize(range(5)), sample_size=100, seed=0)
        assert len(dpo.sampled) == 5
        assert dpo.remaining.count() == 0

    def test_invalid_sample_size(self, engine):
        with pytest.raises(DPError):
            dpread(engine.parallelize([1]), sample_size=0)

    def test_deterministic(self, engine):
        a = dpread(engine.parallelize(range(50)), 5, seed=9)
        b = dpread(engine.parallelize(range(50)), 5, seed=9)
        assert a.sampled == b.sampled

    def test_partition_is_disjoint_and_complete(self, engine):
        dpo = dpread(engine.parallelize(range(30)), 7, seed=2)
        merged = sorted(dpo.sampled + dpo.remaining.collect())
        assert merged == list(range(30))


class TestReduceDP:
    def test_count_semantics(self, engine):
        dpo = dpread(engine.parallelize(range(100)), 10, seed=1)
        neighbours, total = dpo.map_dp(lambda _v: 1).reduce_dp(
            lambda a, b: a + b
        )
        assert total == 100
        assert neighbours == [99] * 10

    def test_sum_neighbours_exact(self, engine):
        data = list(range(20))
        dpo = dpread(engine.parallelize(data), 4, seed=3)
        neighbours, total = dpo.reduce_dp(lambda a, b: a + b)
        assert total == sum(data)
        for sampled_value, neighbour in zip(dpo.sampled, neighbours):
            assert neighbour == sum(data) - sampled_value

    def test_map_then_reduce(self, engine):
        dpo = dpread(engine.parallelize(range(10)), 2, seed=0)
        neighbours, total = dpo.map_dp(lambda v: v * v).reduce_dp(
            lambda a, b: a + b
        )
        squares = sum(v * v for v in range(10))
        assert total == squares
        for sampled_value, neighbour in zip(dpo.sampled, neighbours):
            assert neighbour == squares - sampled_value * sampled_value

    def test_all_sampled_no_remaining(self, engine):
        dpo = dpread(engine.parallelize([3, 4]), 2, seed=0)
        neighbours, total = dpo.reduce_dp(lambda a, b: a + b)
        assert total == 7
        assert sorted(neighbours) == [3, 4]

    def test_single_record_has_empty_neighbour(self, engine):
        dpo = dpread(engine.parallelize([5]), 1, seed=0)
        with pytest.raises(DPError):
            dpo.reduce_dp(lambda a, b: a + b)

    @pytest.mark.parametrize("n, total", [(1, 40), (7, 7), (50, 400)])
    def test_calls_f_linearly(self, engine, n, total):
        """Prefix/suffix folds: at most 3n + |S'| calls of f, not the
        n(n-1) of refolding S minus each record."""
        calls = [0]

        def add(a, b):
            calls[0] += 1
            return a + b

        dpo = dpread(engine.parallelize(range(total), 3), n, seed=5)
        neighbours, result = dpo.reduce_dp(add)
        assert calls[0] <= 3 * n + (total - n)
        assert result == sum(range(total))
        assert neighbours == [result - s for s in dpo.sampled]


class TestReduceByKeyDP:
    def test_full_map_correct(self, engine):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("c", 5), ("b", 7)]
        kv = dpread(engine.parallelize(pairs), 2, seed=1).as_kv()
        _neigh, full = kv.reduce_by_key_dp(lambda a, b: a + b)
        assert full == {"a": 4, "b": 9, "c": 5}

    def test_neighbour_maps_reflect_removal(self, engine):
        pairs = [("a", 1), ("a", 3), ("a", 5)]
        kv = dpread(engine.parallelize(pairs), 2, seed=4).as_kv()
        neighbour_maps, full = kv.reduce_by_key_dp(lambda a, b: a + b)
        assert full == {"a": 9}
        for (key, value), neighbour in zip(kv.sampled, neighbour_maps):
            assert neighbour == {"a": 9 - value}

    def test_key_vanishes_when_last_value_removed(self, engine):
        pairs = [("solo", 42), ("other", 1), ("other", 2)]
        kv = dpread(engine.parallelize(pairs), 3, seed=0).as_kv()
        neighbour_maps, _full = kv.reduce_by_key_dp(lambda a, b: a + b)
        solo_entries = [
            m for (k, _v), m in zip(kv.sampled, neighbour_maps) if k == "solo"
        ]
        for entry in solo_entries:
            assert entry == {"solo": None}

    def test_map_dp_kv(self, engine):
        pairs = [("a", 1), ("b", 2)]
        kv = dpread(engine.parallelize(pairs), 1, seed=0).as_kv()
        doubled = kv.map_dp_kv(lambda kv_: (kv_[0], kv_[1] * 2))
        _neigh, full = doubled.reduce_by_key_dp(lambda a, b: a + b)
        assert full == {"a": 2, "b": 4}


class TestJoinDP:
    def test_total_count_matches_vanilla_join(self, engine):
        left_data = [(i % 4, f"l{i}") for i in range(20)]
        right_data = [(i % 4, f"r{i}") for i in range(12)]
        vanilla = (
            engine.parallelize(left_data).join(engine.parallelize(right_data))
        ).count()
        left = dpread(engine.parallelize(left_data), 5, seed=1).as_kv()
        right = dpread(engine.parallelize(right_data), 3, seed=2).as_kv()
        assert left.join_dp(right).count() == vanilla

    def test_two_shuffle_rounds(self, engine):
        """Paper section V-C: joinDP triggers more shuffles than vanilla."""
        left_data = [(i % 3, i) for i in range(15)]
        right_data = [(i % 3, -i) for i in range(9)]

        vanilla_engine = EngineContext()
        before = vanilla_engine.metrics.get(MetricsRegistry.SHUFFLES)
        vanilla_engine.parallelize(left_data).join(
            vanilla_engine.parallelize(right_data)
        ).count()
        vanilla_shuffles = (
            vanilla_engine.metrics.get(MetricsRegistry.SHUFFLES) - before
        )

        left = dpread(engine.parallelize(left_data), 3, seed=1).as_kv()
        right = dpread(engine.parallelize(right_data), 2, seed=2).as_kv()
        before = engine.metrics.get(MetricsRegistry.SHUFFLES)
        left.join_dp(right).count()
        dp_shuffles = engine.metrics.get(MetricsRegistry.SHUFFLES) - before
        assert dp_shuffles > vanilla_shuffles

    def test_influence_tracking(self, engine):
        left_data = [(1, "a"), (1, "b"), (2, "c")]
        right_data = [(1, "x"), (1, "y")]
        left = dpread(engine.parallelize(left_data), 1, seed=7).as_kv()
        right = dpread(engine.parallelize(right_data), 1, seed=8).as_kv()
        result = left.join_dp(right)
        sampled_key = left.sampled[0][0]
        influence = result.influence_of_left(0)
        if sampled_key == 1:
            # the sampled left tuple joins with both right tuples
            assert len(influence) == 2
        else:
            assert influence == []

    def test_influence_of_right(self, engine):
        left_data = [(1, "a")] * 3
        right_data = [(1, "x")]
        left = dpread(engine.parallelize(left_data), 1, seed=0).as_kv()
        right = dpread(engine.parallelize(right_data), 1, seed=0).as_kv()
        result = left.join_dp(right)
        # right record 0 (the only one, sampled) joins all left rows
        assert len(result.influence_of_right(0)) == 3
