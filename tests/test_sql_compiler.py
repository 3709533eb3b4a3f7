"""Tests for compiled, fused SQL execution (repro.sql.compiler + physical).

Covers expression codegen (the semantics of ``Expression.eval``),
operator fusion (narrow chains are one RDD hop), broadcast hash joins
(shuffle elimination, strategy metrics), what a join residual reads,
the closure cache and lazy LIMIT.  ``Expression.eval`` over the rows is
the reference every executed result is held to.
"""

from __future__ import annotations

import pytest

from repro.common.errors import AnalysisError
from repro.engine.metrics import MetricsRegistry
from repro.sql import SQLSession, col, count_star, lit, sum_
from repro.sql.compiler import (
    CompiledExpression,
    closure_cache_stats,
    compile_expression,
    compile_predicate,
    compile_projection,
    expr_fingerprint,
    plan_fingerprint,
)
from repro.sql.optimizer import estimate_rows

ROWS = [
    {"a": i, "b": i % 3, "c": f"s{i % 5}", "v": float(i)} for i in range(40)
]
DIM = [{"k": i, "w": i * 10} for i in range(3)]


def _session(**kwargs) -> SQLSession:
    session = SQLSession(**kwargs)
    session.create_table("t", ROWS)
    session.create_table("d", DIM)
    return session


# ---------------------------------------------------------------------------
# Expression compiler
# ---------------------------------------------------------------------------


class TestCompiler:
    def test_closures_are_cached_by_fingerprint(self):
        # structurally identical expressions share one compiled closure
        f1 = compile_expression(col("a") + lit(1))
        f2 = compile_expression(col("a") + lit(1))
        assert f1 is f2

    def test_fingerprint_distinguishes_column_from_expression(self):
        # a column literally named "(a + 1)" must not unify with a + 1
        assert expr_fingerprint(col("(a + 1)")) != expr_fingerprint(
            col("a") + lit(1)
        )

    def test_constant_folding(self):
        fn = compile_expression(lit(2) + lit(3) * lit(4))
        assert fn({}) == 14
        assert "14" in fn._source

    def test_common_subexpression_reuse(self):
        fn = compile_expression((col("a") + col("b")) * (col("a") + col("b")))
        # the sum is computed once: exactly one addition in the source
        assert fn._source.count("+") == 1
        assert fn({"a": 3, "b": 4}) == 49

    def test_compiled_expression_wrapper_delegates(self):
        expr = col("a") + lit(1)
        wrapped = CompiledExpression(expr)
        assert wrapped.eval({"a": 2}) == 3
        assert wrapped.references() == {"a"}
        assert wrapped.output_name() == expr.output_name()

    def test_projection_closure_builds_whole_row(self):
        project = compile_projection(
            [col("a"), (col("a") + col("b")).alias("s")]
        )
        assert project({"a": 1, "b": 2}) == {"a": 1, "s": 3}

    def test_fallback_for_unknown_expression_type(self):
        class Weird(type(col("a")).__mro__[1]):  # Expression subclass
            def eval(self, row):
                return 42

            def references(self):
                return set()

        fn = compile_expression(Weird())
        assert fn({}) == 42

    def test_cache_stats_move(self):
        before = closure_cache_stats()
        compile_predicate(col("zz") > lit(before["hits"]))
        after = closure_cache_stats()
        assert after["misses"] >= before["misses"]


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


class TestFusion:
    def test_narrow_chain_is_single_rdd_hop(self):
        session = _session()
        df = (
            session.table("t")
            .filter(col("a") > 5)
            .select("a", "b")
            .filter(col("b") == 1)
        )
        rdd = df.to_rdd()
        base = session.catalog.rdd("t")
        # scan→filter→project→filter fused into ONE map_partitions
        assert rdd.dependencies == (base,)

    def test_fused_results_match_eval(self):
        first, second = col("a") > 5, col("b") == 1
        got = (
            _session()
            .table("t")
            .filter(first)
            .select("a", "b")
            .filter(second)
            .collect()
        )
        projected = [
            {"a": col("a").eval(row), "b": col("b").eval(row)}
            for row in ROWS if first.eval(row)
        ]
        assert got == [row for row in projected if second.eval(row)]
        assert got  # non-trivial

    def test_aggregate_matches_eval(self):
        got = (
            _session()
            .table("t")
            .group_by("b")
            .agg(count_star("n"), sum_(col("v"), "sv"))
            .order_by("b")
            .collect()
        )
        groups = {}
        for row in ROWS:
            key, value = col("b").eval(row), col("v").eval(row)
            n, sv = groups.get(key, (0, None))
            groups[key] = (n + 1, value if sv is None else sv + value)
        assert got == [
            {"b": b, "n": n, "sv": sv} for b, (n, sv) in sorted(groups.items())
        ]


# ---------------------------------------------------------------------------
# Broadcast hash join
# ---------------------------------------------------------------------------


class TestBroadcastJoin:
    def _join(self, session):
        return (
            session.table("t")
            .join(session.table("d"), on=[("b", "k")])
            .agg(sum_(col("w") + col("v"), "s"))
        )

    def test_small_side_broadcasts_without_shuffle(self):
        session = _session()
        before = session.engine.metrics.snapshot()
        result = self._join(session).collect()
        delta = session.engine.metrics.snapshot().diff(before)
        assert delta.get(MetricsRegistry.RECORDS_SHUFFLED) == 0
        assert delta.get(MetricsRegistry.SQL_JOIN_BROADCAST) == 1
        assert delta.get(MetricsRegistry.SQL_JOIN_SHUFFLE) == 0
        assert result

    def test_threshold_zero_forces_shuffle(self):
        session = _session(broadcast_join_threshold=0)
        before = session.engine.metrics.snapshot()
        result = self._join(session).collect()
        delta = session.engine.metrics.snapshot().diff(before)
        assert delta.get(MetricsRegistry.RECORDS_SHUFFLED) > 0
        assert delta.get(MetricsRegistry.SQL_JOIN_SHUFFLE) == 1
        assert delta.get(MetricsRegistry.SQL_JOIN_BROADCAST) == 0
        assert result

    def test_strategies_agree_row_for_row(self):
        def rows(threshold):
            session = _session(broadcast_join_threshold=threshold)
            return sorted(
                session.table("t")
                .join(session.table("d"), on=[("b", "k")])
                .collect(),
                key=lambda r: (r["a"],),
            )

        assert rows(10_000) == rows(0)

    @pytest.mark.parametrize("how", ["left", "semi", "anti"])
    def test_non_inner_joins_agree(self, how):
        def rows(threshold):
            session = _session(broadcast_join_threshold=threshold)
            left = session.table("t")
            right = session.table("d")
            if how == "left":
                df = left.join(right, on=[("b", "k")], how="left")
            elif how == "semi":
                df = left.semi_join(right, on=[("b", "k")])
            else:
                df = left.anti_join(right, on=[("b", "k")])
            return sorted(df.collect(), key=lambda r: r["a"])

        assert rows(10_000) == rows(0)

    def test_tpch_q13_broadcast_eliminates_shuffle(self):
        from repro.tpch import TPCHConfig, TPCHGenerator, query_by_name

        tables = TPCHGenerator(TPCHConfig(scale_rows=300, seed=7)).generate()
        q13 = query_by_name("tpch13")

        def run(threshold):
            session = SQLSession(broadcast_join_threshold=threshold)
            for name, rows in tables.items():
                session.create_table(name, rows)
            before = session.engine.metrics.snapshot()
            value = q13.dataframe(session).scalar()
            delta = session.engine.metrics.snapshot().diff(before)
            return value, delta

        broadcast_value, broadcast_delta = run(1_000_000)
        shuffle_value, shuffle_delta = run(0)
        assert broadcast_value == shuffle_value
        # the shuffle is demonstrably eliminated
        assert broadcast_delta.get(MetricsRegistry.RECORDS_SHUFFLED) == 0
        assert broadcast_delta.get(MetricsRegistry.SQL_JOIN_BROADCAST) >= 1
        assert shuffle_delta.get(MetricsRegistry.RECORDS_SHUFFLED) > 0

    def test_estimate_rows_bounds(self):
        session = _session()
        catalog = session.catalog
        scan_t = session.table("t").plan
        scan_d = session.table("d").plan
        assert estimate_rows(scan_t, catalog) == len(ROWS)
        filtered = session.table("t").filter(col("a") > 5).plan
        assert estimate_rows(filtered, catalog) == len(ROWS)
        joined = session.table("t").join(
            session.table("d"), on=[("b", "k")]
        ).plan
        assert estimate_rows(joined, catalog) == len(ROWS) * len(DIM)
        agg = session.table("t").agg(count_star("n")).plan
        assert estimate_rows(agg, catalog) == 1
        assert estimate_rows(scan_d, catalog) == len(DIM)


# ---------------------------------------------------------------------------
# Join residuals
# ---------------------------------------------------------------------------


class TestJoinResidual:
    """An inner join's residual reads the merged row (right columns
    unprefixed); a left join takes none."""

    RESIDUAL = col("w") > col("v")

    def _reference(self):
        merged = [
            {**left, **right} for left in ROWS for right in DIM
            if left["b"] == right["k"]
        ]
        return [row for row in merged if self.RESIDUAL.eval(row)]

    @pytest.mark.parametrize("threshold", [10_000, 0],
                             ids=["broadcast", "shuffle"])
    def test_inner_residual_reads_the_right_side(self, threshold):
        session = _session(broadcast_join_threshold=threshold)
        joined = session.table("t").join(
            session.table("d"), on=[("b", "k")], residual=self.RESIDUAL
        )
        expected = self._reference()
        assert 0 < len(expected) < len(ROWS)
        assert sorted(joined.collect(), key=lambda r: r["a"]) == expected
        # column pruning keeps the right column the residual reads
        assert joined.agg(count_star("n")).scalar() == len(expected)

    def test_inner_residual_does_not_take_the_prefix(self):
        session = _session()
        with pytest.raises(AnalysisError, match="__r_w"):
            session.table("t").join(
                session.table("d"), on=[("b", "k")],
                residual=col("__r_w") > col("v"),
            )

    def test_left_join_refuses_a_residual(self):
        session = _session()
        with pytest.raises(AnalysisError, match="LEFT JOIN"):
            session.table("t").join(
                session.table("d"), on=[("b", "k")], how="left",
                residual=col("v") > 100.0,
            )


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestPlans:
    def test_table_update_invalidates(self):
        session = _session()
        df = session.table("t").agg(count_star("n"))
        assert df.scalar() == len(ROWS)
        session.create_table("t", ROWS[:10])
        assert session.table("t").agg(count_star("n")).scalar() == 10

    def test_plan_fingerprint_is_structural(self):
        session = _session()
        p1 = session.table("t").filter(col("a") > 5).plan
        p2 = session.table("t").filter(col("a") > 5).plan
        p3 = session.table("t").filter(col("a") > 6).plan
        assert plan_fingerprint(p1) == plan_fingerprint(p2)
        assert plan_fingerprint(p1) != plan_fingerprint(p3)


# ---------------------------------------------------------------------------
# Lazy LIMIT
# ---------------------------------------------------------------------------


class TestLazyLimit:
    def test_limit_runs_no_job_at_plan_time(self):
        session = _session()
        metrics = session.engine.metrics
        before = metrics.get(MetricsRegistry.JOBS)
        rdd = session.table("t").limit(5).to_rdd()
        assert metrics.get(MetricsRegistry.JOBS) == before  # still lazy
        assert len(rdd.collect()) == 5

    def test_limit_results_match_eval(self):
        got = _session().table("t").order_by("a").limit(7).collect()
        assert got == sorted(ROWS, key=col("a").eval)[:7]
        assert len(got) == 7

    def test_limit_larger_than_input(self):
        assert len(_session().table("t").limit(999).collect()) == len(ROWS)
