"""Tests for the Table I operator API (dpread / DPObject / DPObjectKV)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DPError
from repro.core.dpobject import dpread
from repro.core.query import leave_one_out
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

    @pytest.mark.parametrize("parts", [1, 3, 8])
    def test_remaining_keeps_the_partition_count(self, engine, parts):
        """S' is split off on the driver over as many partitions as the
        input had, so folding it still runs one task per partition."""
        dpo = dpread(engine.parallelize(range(40), parts), 6, seed=2)
        assert dpo.remaining.num_partitions == parts
        assert sorted(dpo.sampled + dpo.remaining.collect()) == list(range(40))


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

    def test_empty_dataset_raises(self, engine):
        dpo = dpread(engine.parallelize([], 3), 4, seed=0)
        assert dpo.sampled == []
        with pytest.raises(DPError, match="empty dataset"):
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

    @pytest.mark.parametrize("n", [10, 100, 400])
    def test_calls_f_linearly(self, engine, n):
        """One key over 2 000 records: each key's sampled values fold
        onto R_S'(key) once, so f runs at most 3n + |S'| times, not once
        per sampled record per sampled value of its key."""
        calls = [0]

        def add(a, b):
            calls[0] += 1
            return a + b

        total = 2000
        pairs = [("k", v) for v in range(total)]
        kv = dpread(engine.parallelize(pairs, 3), n, seed=5).as_kv()
        neighbour_maps, full = kv.reduce_by_key_dp(add)
        assert calls[0] <= 3 * n + (total - n)
        assert full == {"k": sum(range(total))}
        assert neighbour_maps == [
            {"k": full["k"] - v} for _k, v in kv.sampled
        ]

    def test_calls_f_linearly_over_many_keys(self, engine):
        """Each key folds its own sampled values once: summed over keys
        that stays within 3n + |S'| calls."""
        calls = [0]

        def add(a, b):
            calls[0] += 1
            return a + b

        total, n = 1500, 300
        pairs = [(v % 7, v) for v in range(total)]
        kv = dpread(engine.parallelize(pairs, 4), n, seed=8).as_kv()
        neighbour_maps, full = kv.reduce_by_key_dp(add)
        assert calls[0] <= 3 * n + (total - n)
        assert full == {
            k: sum(v for v in range(total) if v % 7 == k) for k in range(7)
        }
        assert neighbour_maps == [{k: full[k] - v} for k, v in kv.sampled]


def _nested_loop(left, right):
    """The inner join of two pair lists, as a multiset."""
    return Counter(
        (k, (v, w)) for k, v in left for k2, w in right if k == k2
    )


class TestJoinDP:
    def test_total_count_matches_vanilla_join(self, engine):
        left_data = [(i % 4, f"l{i}") for i in range(20)]
        right_data = [(i % 4, f"r{i}") for i in range(12)]
        vanilla = sum(_nested_loop(left_data, right_data).values())
        left = dpread(engine.parallelize(left_data), 5, seed=1).as_kv()
        right = dpread(engine.parallelize(right_data), 3, seed=2).as_kv()
        assert left.join_dp(right).count() == vanilla

    def test_two_join_rounds(self, engine):
        """Paper section V-C: round one joins S'1 with S'2, round two
        the combinations with a sampled side; together they are the
        join of the full inputs, and each differing tuple carries the
        sampled index of the side or sides it came from."""
        left_data = [(i % 3, i) for i in range(15)]
        right_data = [(i % 3, -i) for i in range(9)]
        left = dpread(engine.parallelize(left_data, 2), 3, seed=1).as_kv()
        right = dpread(engine.parallelize(right_data, 2), 2, seed=2).as_kv()
        result = left.join_dp(right)

        overlapped = result.remaining_join.collect()
        assert Counter(overlapped) == _nested_loop(
            left.remaining.collect(), right.remaining.collect()
        )
        differing = Counter(
            (k, (v, w)) for k, (_i, _j, v, w) in result.differing
        )
        assert Counter(overlapped) + differing == _nested_loop(
            left_data, right_data
        )
        for key, (i, j, v, w) in result.differing:
            assert i is not None or j is not None
            if i is not None:
                assert left.sampled[i] == (key, v)
            else:
                assert (key, v) in left.remaining.collect()
            if j is not None:
                assert right.sampled[j] == (key, w)
            else:
                assert (key, w) in right.remaining.collect()

    def test_round_one_is_lazy(self, engine):
        """join_dp runs two jobs, both for round two (S'2 collected for
        its index, S'1 probing S2's index); round one's S'1 x S'2 runs
        only when ``remaining_join`` is evaluated."""
        left = dpread(
            engine.parallelize([(i % 5, i) for i in range(40)], 3), 4, seed=1
        ).as_kv()
        right = dpread(
            engine.parallelize([(i % 7, -i) for i in range(30)], 2), 3, seed=2
        ).as_kv()
        jobs = engine.metrics.get(MetricsRegistry.JOBS)
        result = left.join_dp(right)
        assert engine.metrics.get(MetricsRegistry.JOBS) == jobs + 2
        result.remaining_join.collect()
        assert engine.metrics.get(MetricsRegistry.JOBS) == jobs + 3

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


PAIRS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-20, 20)), max_size=25
)


class TestBruteForce:
    """Each Table I key-value operator equals dropping each sampled
    record from the dataset and recomputing from scratch."""

    @given(pairs=PAIRS, n=st.integers(1, 8), parts=st.integers(1, 4),
           seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_reduce_by_key_dp(self, pairs, n, parts, seed):
        kv = dpread(EngineContext().parallelize(pairs, parts), n, seed).as_kv()
        neighbour_maps, full = kv.reduce_by_key_dp(lambda a, b: a + b)
        remaining = kv.remaining.collect()
        assert Counter(kv.sampled + remaining) == Counter(pairs)

        def refold(records):
            out = {}
            for key, value in records:
                out[key] = out.get(key, 0) + value
            return out

        assert full == refold(pairs)
        assert len(neighbour_maps) == len(kv.sampled)
        for i, (key, _value) in enumerate(kv.sampled):
            without = refold(kv.sampled[:i] + kv.sampled[i + 1:] + remaining)
            assert neighbour_maps[i] == {key: without.get(key)}

    @given(left=PAIRS, right=PAIRS, n1=st.integers(1, 5),
           n2=st.integers(1, 5), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_join_dp(self, left, right, n1, n2, seed):
        engine = EngineContext()
        lkv = dpread(engine.parallelize(left, 2), n1, seed).as_kv()
        rkv = dpread(engine.parallelize(right, 3), n2, seed + 1).as_kv()
        result = lkv.join_dp(rkv)
        full = _nested_loop(left, right)
        assert result.count() == sum(full.values())

        def vanished(influence):
            return Counter((k, (v, w)) for k, (_i, _j, v, w) in influence)

        l_rest, r_rest = lkv.remaining.collect(), rkv.remaining.collect()
        for i in range(len(lkv.sampled)):
            others = lkv.sampled[:i] + lkv.sampled[i + 1:] + l_rest
            assert vanished(result.influence_of_left(i)) == (
                full - _nested_loop(others, right)
            )
        for j in range(len(rkv.sampled)):
            others = rkv.sampled[:j] + rkv.sampled[j + 1:] + r_rest
            assert vanished(result.influence_of_right(j)) == (
                full - _nested_loop(left, others)
            )


class TestLeaveOneOut:
    """The prefix/suffix fold shared by ``reduceDP``,
    ``reduceByKeyDP`` and ``MapReduceQuery.prefix_suffix_batch``."""

    @given(items=st.lists(st.text(max_size=3), max_size=12),
           base=st.text(max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_matches_refolding_each_remainder(self, items, base):
        """A non-commutative combine (concatenation) shows that every
        fold keeps the items' order after ``base``."""
        folds, total = leave_one_out(items, lambda a, b: a + b, "", base)
        assert total == base + "".join(items)
        assert folds == [
            base + "".join(items[:i] + items[i + 1:])
            for i in range(len(items))
        ]

    def test_no_items(self):
        def never(_a, _b):
            raise AssertionError("combine called on no items")

        assert leave_one_out([], never, 0, 5) == ([], 5)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_calls_combine_3n_minus_1_times(self, n):
        calls = [0]

        def add(a, b):
            calls[0] += 1
            return a + b

        folds, total = leave_one_out(list(range(n)), add, 0, 100)
        assert calls[0] == 3 * n - 1
        assert total == 100 + sum(range(n))
        assert folds == [total - i for i in range(n)]

    @pytest.mark.parametrize("name", ["tpch6", "linreg"])
    def test_prefix_suffix_batch_default_is_a_leave_one_out(self, name):
        """The scalar default of ``prefix_suffix_batch`` folds each
        remainder from ``zero`` and agrees with the workload's own
        batched kernel."""
        from repro.core.query import MapReduceQuery
        from repro.workloads import workload_by_name

        workload = workload_by_name(name)
        query = workload.query
        tables = workload.make_tables(300, 1)
        aux = query.build_aux(tables)
        batch = query.map_batch(tables[query.protected_table][:9], aux)
        elements = list(query.iter_batch(batch))

        def finalize(aggs):
            return query.finalize_batch(
                query.combine_batch(query.zero(), aggs), aux
            )

        default = finalize(MapReduceQuery.prefix_suffix_batch(query, batch))
        refolds = []
        for i in range(len(elements)):
            acc = query.zero()
            for element in elements[:i] + elements[i + 1:]:
                acc = query.combine(acc, element)
            refolds.append(acc)
        assert default.shape == (9, query.output_dim)
        np.testing.assert_allclose(
            default, finalize(query.batch_stack(refolds)),
            rtol=1e-9, atol=1e-12,
        )
        np.testing.assert_allclose(
            default, finalize(query.prefix_suffix_batch(batch)),
            rtol=1e-9, atol=1e-12,
        )
