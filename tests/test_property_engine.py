"""Property-based tests: engine operators match Python reference semantics.

These are the "commutativity/associativity" guarantees the UPA paper
builds on: whatever the partitioning or task attempts that fail and
are retried from lineage, the engine — and the Table I key-value
operators on it — must compute the same function of the input multiset
as a straight-line Python reference.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpobject import dpread
from repro.engine import EngineContext, FaultInjector

SMALL_INTS = st.lists(st.integers(-50, 50), max_size=60)
PARTS = st.integers(1, 7)
PAIRS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-20, 20)), max_size=60
)


def _add(a, b):
    return a + b


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
    def test_map_partitions_matches_builtin(self, data, parts):
        ctx = make_ctx()
        out = ctx.parallelize(data, parts).map_partitions(
            lambda it: (v for v in it if v % 3 == 1)
        ).collect()
        assert out == [v for v in data if v % 3 == 1]

    @given(data=SMALL_INTS, parts=PARTS)
    @settings(max_examples=40, deadline=None)
    def test_sum_count_invariant_to_partitioning(self, data, parts):
        ctx = make_ctx()
        rdd = ctx.parallelize(data, parts)
        assert rdd.aggregate(0, _add, _add) == sum(data)
        assert rdd.count() == len(data)

    @given(data=SMALL_INTS, parts=PARTS, n=st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_take_is_prefix(self, data, parts, n):
        ctx = make_ctx()
        assert ctx.parallelize(data, parts).take(n) == data[: n]

class TestSemanticsUnderFaults:
    @given(data=SMALL_INTS, parts=PARTS, seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_map_filter_collect_matches_builtin(self, data, parts, seed):
        out = (
            faulty_ctx(seed).parallelize(data, parts)
            .map(lambda v: v * v)
            .map_partitions(lambda it: (v for v in it if v % 3 != 0))
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
    def test_reduce_by_key_dp_matches_reference(self, pairs, parts, seed):
        kv = dpread(
            faulty_ctx(seed).parallelize(pairs, parts), 5, seed
        ).as_kv()
        _neighbours, out = kv.reduce_by_key_dp(_add)
        expected = defaultdict(int)
        for k, v in pairs:
            expected[k] += v
        assert out == dict(expected)

    @given(left=PAIRS, right=PAIRS, parts=PARTS, seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_join_dp_matches_reference(self, left, right, parts, seed):
        ctx = faulty_ctx(seed)
        result = dpread(ctx.parallelize(left, parts), 3, seed).as_kv().join_dp(
            dpread(ctx.parallelize(right, parts), 3, seed + 1).as_kv()
        )
        out = Counter(result.remaining_join.collect()) + Counter(
            (k, (v, w)) for k, (_i, _j, v, w) in result.differing
        )
        assert out == Counter(
            (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
        )
