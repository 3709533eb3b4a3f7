"""Tests for compiled, fused SQL execution (repro.sql.compiler + physical).

Covers expression codegen (the semantics of ``Expression.eval``),
operator fusion (narrow chains are one RDD hop), that every shipped
plan runs and places each WHERE conjunct where it reads, what a join
residual reads and the closure cache.
``Expression.eval`` over the rows is the reference every executed result
is held to.
"""

from __future__ import annotations

import pytest

from repro.common.errors import AnalysisError
from repro.sql import SQLSession, col
from repro.sql.compiler import (
    CompiledExpression,
    compile_expression,
    compile_projection,
    expr_fingerprint,
    plan_fingerprint,
)
from repro.sql.expr import Alias, Expression, Literal, split_conjuncts
from repro.sql.logical import Filter, Join, LogicalPlan, Project, Scan

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
        f1 = compile_expression(col("a") + Literal(1))
        f2 = compile_expression(col("a") + Literal(1))
        assert f1 is f2

    def test_fingerprint_distinguishes_column_from_expression(self):
        # a column literally named "(a + 1)" must not unify with a + 1
        assert expr_fingerprint(col("(a + 1)")) != expr_fingerprint(
            col("a") + Literal(1)
        )

    def test_constant_folding(self):
        fn = compile_expression(Literal(2) + Literal(3) * Literal(4))
        assert fn({}) == 14
        assert "14" in fn._source

    def test_common_subexpression_reuse(self):
        fn = compile_expression((col("a") + col("b")) * (col("a") + col("b")))
        # the sum is computed once: exactly one addition in the source
        assert fn._source.count("+") == 1
        assert fn({"a": 3, "b": 4}) == 49

    def test_compiled_expression_wrapper_delegates(self):
        expr = col("a") + Literal(1)
        wrapped = CompiledExpression(expr)
        assert wrapped.eval({"a": 2}) == 3
        assert wrapped.references() == {"a"}
        assert wrapped.output_name() == expr.output_name()

    def test_projection_closure_builds_whole_row(self):
        project = compile_projection(
            [col("a"), Alias(col("a") + col("b"), "s")]
        )
        assert project({"a": 1, "b": 2}) == {"a": 1, "s": 3}

    def test_an_unknown_expression_type_has_no_fingerprint(self):
        """No node fingerprints by identity: one the fingerprints do not
        know is refused, in the cache key and in a plan's."""

        class Weird(Expression):
            def eval(self, row):
                return 42

            def references(self):
                return set()

        with pytest.raises(TypeError, match="Weird"):
            expr_fingerprint(col("a") + Weird())
        with pytest.raises(TypeError, match="Weird"):
            compile_expression(Weird())
        scan = Scan("t", _session().catalog.table("t").schema)
        with pytest.raises(TypeError, match="Weird"):
            plan_fingerprint(Filter(scan, Weird()))

    def test_an_unknown_plan_node_has_no_fingerprint(self):
        class Opaque(LogicalPlan):
            pass

        with pytest.raises(TypeError, match="Opaque"):
            plan_fingerprint(Opaque())


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def _narrow_chain(session, first, second):
    """scan → filter → project → filter, a shape the parser does not
    build (it filters below the projection only)."""
    scan = Scan("t", session.catalog.table("t").schema)
    return Filter(Project(Filter(scan, first), [col("a"), col("b")]), second)


class TestFusion:
    def test_narrow_chain_is_single_rdd_hop(self):
        session = _session()
        plan = _narrow_chain(session, col("a") > 5, col("b") == 1)
        base = session.catalog.rdd("t")
        # scan→filter→project→filter fused into ONE map_partitions, as
        # written and optimized
        assert session.executor.execute(plan).dependencies == (base,)
        assert session.execute_plan(plan).dependencies == (base,)

    def test_fused_results_match_eval(self):
        first, second = col("a") > 5, col("b") == 1
        session = _session()
        got = session.execute_plan(
            _narrow_chain(session, first, second)
        ).collect()
        projected = [
            {"a": col("a").eval(row), "b": col("b").eval(row)}
            for row in ROWS if first.eval(row)
        ]
        assert got == [row for row in projected if second.eval(row)]
        assert got  # non-trivial

    def test_aggregate_matches_eval(self):
        session = _session()
        got = session.sql(
            "SELECT COUNT(*) AS n, SUM(v) AS sv FROM t WHERE b = 1"
        ).collect()
        kept = [row for row in ROWS if (col("b") == 1).eval(row)]
        sv = None
        for row in kept:  # partition by partition, merged in order
            value = col("v").eval(row)
            sv = value if sv is None else sv + value
        assert got == [{"n": len(kept), "sv": sv}]


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
    from repro.tpch.workload import all_queries
    from tests.sql_extensions import EXTENSIONS

    texts = [(q.name, q.sql_text()) for q in all_queries()]
    texts += [(name, text) for name, (text, _, _) in EXTENSIONS.items()]
    plans = [
        pytest.param(lambda s, text=text: s.sql(text), id=f"{name}-sql")
        for name, text in texts
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

    @pytest.mark.parametrize("frame", _tpch_plans())
    def test_each_conjunct_is_planned_where_it_reads(self, frame):
        """As parsed, no filter stacks on a filter, and a filter right
        above a join holds no conjunct that one side could evaluate."""
        plan = frame(_tpch_session()).plan
        for node in plan.walk():
            if not isinstance(node, Filter):
                continue
            assert not isinstance(node.child, Filter), plan.pretty()
            if isinstance(node.child, Join):
                sides = (node.child.left, node.child.right)
                for conjunct in split_conjuncts(node.condition):
                    assert not any(
                        conjunct.references() <= set(side.schema.names)
                        for side in sides
                    ), f"{conjunct!r} reads one side of\n{plan.pretty()}"


# ---------------------------------------------------------------------------
# NULL keys
# ---------------------------------------------------------------------------

NULL_T = [{"a": 1, "b": None}, {"a": 2, "b": 3}, {"a": 3, "b": 1}]
NULL_U = [{"k": None, "v": 1}, {"k": 3, "v": 2}]


class TestNullSemantics:
    """``NULL = x`` is not true, so a key holding NULL matches nothing."""

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


# ---------------------------------------------------------------------------
# Join residuals
# ---------------------------------------------------------------------------


class TestJoinResidual:
    """An inner join's extra condition is a filter over the merged row,
    so it names right columns unprefixed."""

    RESIDUAL = col("w") > col("v")

    def _reference(self):
        merged = [
            {**left, **right} for left in ROWS for right in DIM
            if left["b"] == right["k"]
        ]
        return [row for row in merged if self.RESIDUAL.eval(row)]

    def test_inner_residual_reads_the_right_side(self):
        session = _session()
        joined = session.sql("SELECT * FROM t, d WHERE b = k AND w > v")
        expected = self._reference()
        assert 0 < len(expected) < len(ROWS)
        assert sorted(joined.collect(), key=lambda r: r["a"]) == expected
        # column pruning keeps the right column the residual reads
        counted = session.sql(
            "SELECT COUNT(*) AS n FROM t, d WHERE b = k AND w > v"
        )
        assert counted.collect() == [{"n": len(expected)}]

    def test_inner_residual_does_not_take_the_prefix(self):
        session = _session()
        with pytest.raises(AnalysisError, match="__r_w"):
            session.sql("SELECT * FROM t, d WHERE b = k AND __r_w > v")


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestPlans:
    def test_table_update_invalidates(self):
        session = _session()
        count = "SELECT COUNT(*) AS n FROM t"
        assert session.sql(count).collect() == [{"n": len(ROWS)}]
        session.create_table("t", ROWS[:10])
        assert session.sql(count).collect() == [{"n": 10}]

    def test_plan_fingerprint_is_structural(self):
        session = _session()
        p1, p2, p3 = (
            session.sql(f"SELECT * FROM t WHERE a > {n}").plan
            for n in (5, 5, 6)
        )
        assert plan_fingerprint(p1) == plan_fingerprint(p2)
        assert plan_fingerprint(p1) != plan_fingerprint(p3)
