"""Tests for compiled, fused SQL execution (repro.sql.compiler + physical).

Covers expression codegen (the semantics of ``Expression.eval``),
operator fusion (narrow chains are one RDD hop), that every shipped
plan runs, what a join residual reads, the closure cache and LIMIT
reading no partition past its rows.  ``Expression.eval`` over the rows is
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

ROWS = [
    {"a": i, "b": i % 3, "c": f"s{i % 5}", "v": float(i)} for i in range(40)
]
DIM = [{"k": i, "w": i * 10} for i in range(3)]


def _session() -> SQLSession:
    session = SQLSession()
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
# Every shipped plan runs
# ---------------------------------------------------------------------------


def _tpch_session():
    from repro.tpch import TPCHConfig, TPCHGenerator

    session = SQLSession()
    tables = TPCHGenerator(TPCHConfig(scale_rows=300, seed=7)).generate()
    for name, rows in tables.items():
        session.create_table(name, rows)
    return session


def _tpch_plans():
    from benchmarks.e2e.workloads import SQL_QUERIES
    from repro.tpch.queries.extras import Q12, Q14
    from repro.tpch.workload import all_queries

    queries = all_queries() + [Q12(), Q14()]
    plans = [
        pytest.param(lambda s, q=q: s.sql(q.sql_text()), id=f"{q.name}-sql")
        for q in queries
    ]
    plans += [
        pytest.param(lambda s, text=text: s.sql(text), id=f"adhoc-{group}")
        for group, text, _protected, _sampler in SQL_QUERIES
    ]
    return plans


class TestShippedPlans:
    """Every plan the package ships — TPC-H as SQL text and the
    ad-hoc benchmark queries — runs and returns rows."""

    @pytest.mark.parametrize("frame", _tpch_plans())
    def test_query_returns_rows(self, frame):
        assert frame(_tpch_session()).collect()


# ---------------------------------------------------------------------------
# NULL keys and NULL sort keys
# ---------------------------------------------------------------------------

NULL_T = [{"a": 1, "b": None}, {"a": 2, "b": 3}, {"a": 3, "b": 1}]
NULL_U = [{"k": None, "v": 1}, {"k": 3, "v": 2}]


class TestNullSemantics:
    """``NULL = x`` is not true, so a key holding NULL matches nothing;
    a sort orders NULL below every value."""

    @pytest.fixture
    def session(self):
        session = SQLSession()
        session.create_table("t", NULL_T)
        session.create_table("u", NULL_U)
        return session

    def test_inner_join_drops_null_keys(self, session):
        got = session.sql("SELECT a, v FROM t, u WHERE b = k").collect()
        assert got == [{"a": 2, "v": 2}]

    def test_in_subquery_matches_no_null(self, session):
        got = session.sql(
            "SELECT a FROM t WHERE b IN (SELECT k FROM u)"
        ).collect()
        assert got == [{"a": 2}]

    def test_not_in_is_planned_as_not_exists(self, session):
        # SQL's three-valued NOT IN would keep no row here (u.k holds a
        # NULL); NOT EXISTS keeps every row without a match.
        got = session.sql(
            "SELECT a FROM t WHERE b NOT IN (SELECT k FROM u)"
        ).collect()
        assert got == [{"a": 1}, {"a": 3}]

    def test_left_join_null_extends_a_null_key(self, session):
        got = session.table("t").join(
            session.table("u"), on=[("b", "k")], how="left"
        ).collect()
        assert got == [
            {"a": 1, "b": None, "k": None, "v": None},
            {"a": 2, "b": 3, "k": 3, "v": 2},
            {"a": 3, "b": 1, "k": None, "v": None},
        ]

    @pytest.mark.parametrize("order, expected", [
        ("b", [1, 3, 2]),
        ("b DESC", [2, 3, 1]),
        ("b DESC, a ASC", [2, 3, 1]),
        ("b ASC, a DESC", [1, 3, 2]),
    ])
    def test_order_by_puts_null_first_ascending(self, session, order,
                                                expected):
        got = session.sql(f"SELECT a, b FROM t ORDER BY {order}").collect()
        assert [row["a"] for row in got] == expected


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

    def test_inner_residual_reads_the_right_side(self):
        session = _session()
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
    def test_later_partitions_are_never_computed(self):
        session = _session()
        metrics = session.engine.metrics
        parts = session.catalog.rdd("t").num_partitions
        assert parts > 1
        before = metrics.get(MetricsRegistry.RECORDS_READ)
        rdd = session.table("t").limit(5).to_rdd()
        # of the table, only the first partition is read
        read = metrics.get(MetricsRegistry.RECORDS_READ) - before
        assert read == len(ROWS) // parts
        assert rdd.collect() == ROWS[:5]

    def test_limit_results_match_eval(self):
        got = _session().table("t").order_by("a").limit(7).collect()
        assert got == sorted(ROWS, key=col("a").eval)[:7]
        assert len(got) == 7

    def test_limit_larger_than_input(self):
        assert len(_session().table("t").limit(999).collect()) == len(ROWS)
