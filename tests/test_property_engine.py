"""Property-based tests: engine operators match Python reference semantics.

These are the "commutativity/associativity" guarantees the UPA paper
builds on: whatever the partitioning, shuffle order or task attempts
that fail and are retried from lineage, the engine must compute the
same function of the input multiset as a straight-line Python
reference.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineContext, FaultInjector

SMALL_INTS = st.lists(st.integers(-50, 50), max_size=60)
PARTS = st.integers(1, 7)
PAIRS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-20, 20)), max_size=60
)


def _add(a, b):
    return a + b


def _append(acc, v):
    acc.append(v)
    return acc


def _extend(a, b):
    a.extend(b)
    return a


def make_ctx() -> EngineContext:
    return EngineContext()


def faulty_ctx(seed: int) -> EngineContext:
    """An engine failing a third of its task attempts; the cap keeps
    every task inside the default retry limit."""
    ctx = EngineContext()
    ctx.install_fault_injector(
        FaultInjector(failure_probability=0.34, max_failures=3, seed=seed)
    )
    return ctx


class TestReferenceSemantics:
    @given(data=SMALL_INTS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_map_matches_builtin(self, data, parts):
        ctx = make_ctx()
        out = ctx.parallelize(data, parts).map(lambda v: v * 2 + 1).collect()
        assert out == [v * 2 + 1 for v in data]

    @given(data=SMALL_INTS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_filter_matches_builtin(self, data, parts):
        ctx = make_ctx()
        out = ctx.parallelize(data, parts).filter(lambda v: v % 3 == 1).collect()
        assert out == [v for v in data if v % 3 == 1]

    @given(data=SMALL_INTS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_sum_count_invariant_to_partitioning(self, data, parts):
        ctx = make_ctx()
        rdd = ctx.parallelize(data, parts)
        assert rdd.aggregate(0, _add, _add) == sum(data)
        assert rdd.count() == len(data)

    @given(data=st.lists(st.integers(-50, 50), min_size=1, max_size=60),
           parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_reduce_min_max(self, data, parts):
        ctx = make_ctx()
        rdd = ctx.parallelize(data, parts)
        assert rdd.reduce(min) == min(data)
        assert rdd.reduce(max) == max(data)

    @given(data=SMALL_INTS, parts=PARTS, n=st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_take_is_prefix(self, data, parts, n):
        ctx = make_ctx()
        assert ctx.parallelize(data, parts).take(n) == data[: n]

    @given(data=SMALL_INTS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_count_by_value_matches_counter(self, data, parts):
        """COUNT(*) GROUP BY: ``(v, 1)`` pairs summed by key."""
        ctx = make_ctx()
        out = dict(
            ctx.parallelize(data, parts)
            .map(lambda v: (v, 1))
            .reduce_by_key(_add)
            .collect()
        )
        assert out == dict(Counter(data))


class TestKeyValueSemantics:
    @given(pairs=PAIRS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_reduce_by_key_matches_reference(self, pairs, parts):
        ctx = make_ctx()
        out = dict(
            ctx.parallelize(pairs, parts)
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        expected = defaultdict(int)
        for k, v in pairs:
            expected[k] += v
        assert out == dict(expected)

    @given(pairs=PAIRS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_group_by_key_matches_reference(self, pairs, parts):
        ctx = make_ctx()
        grouped = ctx.parallelize(pairs, parts).combine_by_key(
            lambda v: [v], _append, _extend
        )
        out = {k: sorted(v) for k, v in grouped.collect()}
        expected = defaultdict(list)
        for k, v in pairs:
            expected[k].append(v)
        assert out == {k: sorted(v) for k, v in expected.items()}

    @given(left=PAIRS, right=PAIRS, parts=PARTS)
    @settings(max_examples=30, deadline=None)
    def test_join_matches_reference(self, left, right, parts):
        ctx = make_ctx()
        out = sorted(
            ctx.parallelize(left, parts)
            .join(ctx.parallelize(right, parts))
            .collect()
        )
        expected = sorted(
            (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
        )
        assert out == expected

    @given(left=PAIRS, right=PAIRS)
    @settings(max_examples=30, deadline=None)
    def test_semi_anti_partition_left(self, left, right):
        """The SQL semi/anti join's cogroup split: every left pair lands
        on exactly one side, by whether the right has its key."""
        ctx = make_ctx()
        grouped = ctx.parallelize(left, 3).cogroup(
            ctx.parallelize(right, 3)
        )
        semi = sorted(
            grouped.flat_map(
                lambda kvw: ((kvw[0], v) for v in kvw[1][0] if kvw[1][1])
            ).collect()
        )
        anti = sorted(
            grouped.flat_map(
                lambda kvw: ((kvw[0], v) for v in kvw[1][0] if not kvw[1][1])
            ).collect()
        )
        assert sorted(semi + anti) == sorted(left)
        right_keys = {k for k, _v in right}
        assert all(k in right_keys for k, _v in semi)
        assert all(k not in right_keys for k, _v in anti)


class TestSemanticsUnderFaults:
    @given(data=SMALL_INTS, parts=PARTS, seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_map_filter_collect_matches_builtin(self, data, parts, seed):
        out = (
            faulty_ctx(seed).parallelize(data, parts)
            .map(lambda v: v * v)
            .filter(lambda v: v % 3 != 0)
            .collect()
        )
        assert out == [v * v for v in data if v * v % 3 != 0]

    @given(data=SMALL_INTS, parts=PARTS, seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_sum_count_match_builtin(self, data, parts, seed):
        rdd = faulty_ctx(seed).parallelize(data, parts)
        assert rdd.aggregate(0, _add, _add) == sum(data)
        assert rdd.count() == len(data)

    @given(pairs=PAIRS, parts=PARTS, seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_reduce_by_key_matches_reference(self, pairs, parts, seed):
        out = dict(
            faulty_ctx(seed).parallelize(pairs, parts)
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        expected = defaultdict(int)
        for k, v in pairs:
            expected[k] += v
        assert out == dict(expected)

    @given(left=PAIRS, right=PAIRS, parts=PARTS, seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_join_matches_reference(self, left, right, parts, seed):
        ctx = faulty_ctx(seed)
        out = sorted(
            ctx.parallelize(left, parts)
            .join(ctx.parallelize(right, parts))
            .collect()
        )
        expected = sorted(
            (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
        )
        assert out == expected
