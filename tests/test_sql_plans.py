"""Tests for logical plans, the optimizer, and physical execution."""

import pytest

from repro.common.errors import AnalysisError
from repro.sql import SQLSession, col
from repro.sql.expr import Alias
from repro.sql.functions import AggregateSpec
from repro.sql.logical import (
    Aggregate,
    Filter,
    Join,
    Project,
    Scan,
    single_aggregate,
)
from repro.sql.optimizer import optimize, prune_columns, substitute
from repro.sql.types import Field, Schema


@pytest.fixture
def session():
    sess = SQLSession()
    sess.create_table(
        "t", [{"a": i, "b": i % 4, "c": f"s{i}"} for i in range(40)]
    )
    sess.create_table("u", [{"k": i, "v": i * 10} for i in range(8)])
    sess.create_table("e", [])
    return sess


def _scan(session, name):
    return Scan(name, session.catalog.table(name).schema)


class TestLogicalValidation:
    def test_filter_unknown_column(self, session):
        scan = _scan(session, "t")
        with pytest.raises(AnalysisError):
            Filter(scan, col("missing") > 1)

    def test_project_unknown_column(self, session):
        scan = _scan(session, "t")
        with pytest.raises(AnalysisError):
            Project(scan, [col("missing")])

    def test_project_duplicate_names(self, session):
        scan = _scan(session, "t")
        with pytest.raises(AnalysisError):
            Project(scan, [col("a"), col("a")])

    def test_join_bad_key_side(self, session):
        left = _scan(session, "t")
        right = _scan(session, "u")
        with pytest.raises(AnalysisError):
            Join(left, right, [(col("k"), col("k"))])

    def test_join_unknown_type(self, session):
        left = _scan(session, "t")
        right = _scan(session, "u")
        with pytest.raises(AnalysisError):
            Join(left, right, [(col("a"), col("k"))], how="cross")

    def test_join_schema_merge(self, session):
        join = Join(
            _scan(session, "t"),
            _scan(session, "u"),
            [(col("a"), col("k"))],
        )
        assert join.schema.names == ["a", "b", "c", "k", "v"]

    def test_semi_join_schema_is_left_only(self, session):
        join = Join(
            _scan(session, "t"),
            _scan(session, "u"),
            [(col("a"), col("k"))],
            how="semi",
        )
        assert join.schema.names == ["a", "b", "c"]

    def test_residual_validation(self, session):
        with pytest.raises(AnalysisError):
            Join(
                _scan(session, "t"),
                _scan(session, "u"),
                [(col("a"), col("k"))],
                how="semi",
                residual=col("__r_nope") > 1,
            )
        with pytest.raises(AnalysisError, match="INNER JOIN takes no residual"):
            Join(
                _scan(session, "t"),
                _scan(session, "u"),
                [(col("a"), col("k"))],
                residual=col("a") > 1,
            )

    def test_aggregate_duplicate_aliases(self, session):
        with pytest.raises(AnalysisError):
            Aggregate(
                _scan(session, "t"),
                [AggregateSpec("count", None, "x")] * 2,
            )

    def test_aggregate_needs_an_aggregate(self, session):
        with pytest.raises(AnalysisError, match="at least one aggregate"):
            Aggregate(_scan(session, "t"), [])

    def test_single_aggregate_looks_under_projections(self, session):
        plan = session.sql("SELECT COUNT(*) + 1 AS n FROM t WHERE a > 3").plan
        found = single_aggregate(plan, AnalysisError)
        assert isinstance(found, Aggregate)
        assert [spec.func for spec in found.aggregates] == ["count"]

    @pytest.mark.parametrize("text, computes", [
        ("SELECT a FROM t", "none"),
        ("SELECT COUNT(*) AS n, SUM(a) AS s FROM t", "2"),
    ])
    def test_single_aggregate_raises_the_callers_error(
        self, session, text, computes
    ):
        class Refused(Exception):
            pass

        with pytest.raises(Refused, match=f"the query computes {computes}"):
            single_aggregate(session.sql(text).plan, Refused)

    def test_schema_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Field("a"), Field("a")])

    def test_pretty_print_shows_tree(self, session):
        text = session.sql("SELECT a FROM t WHERE a > 3").plan.pretty()
        assert "Project" in text and "Filter" in text and "Scan(t)" in text


class TestOptimizerRules:
    def test_substitute(self):
        expr = (col("x") + 1) > col("y")
        replaced = substitute(expr, {"x": col("a")})
        assert replaced.references() == {"a", "y"}

    def test_combined_filters(self, session):
        df = session.sql("SELECT a, b FROM t WHERE a > 1 AND b < 3")
        assert sum(isinstance(n, Filter) for n in df.plan.walk()) == 2
        plan = optimize(df.plan)
        filters = [n for n in plan.walk() if isinstance(n, Filter)]
        assert len(filters) == 1

    def test_filter_pushed_through_rename_project(self, session):
        renamed = Project(_scan(session, "t"), [Alias(col("a"), "x"), col("b")])
        plan = optimize(Filter(renamed, col("x") > 5))
        # The filter must now sit below the projection.
        node = plan
        assert isinstance(node, Project)

    def test_filter_not_pushed_through_computed_project(self, session):
        computed = Project(_scan(session, "t"), [Alias(col("a") + 1, "x")])
        plan = optimize(Filter(computed, col("x") > 5))
        assert isinstance(plan, Filter)  # stays above the projection

    def test_filter_split_into_join_sides(self, session):
        df = session.sql("SELECT * FROM t, u WHERE a = k AND b = 1 AND v > 10")
        plan = optimize(df.plan)
        join = next(n for n in plan.walk() if isinstance(n, Join))
        assert isinstance(join.left, Filter) or isinstance(
            join.left, Project
        )  # pushed left (possibly under pruning projection)
        left_filters = [
            n for n in join.left.walk() if isinstance(n, Filter)
        ]
        right_filters = [
            n for n in join.right.walk() if isinstance(n, Filter)
        ]
        assert left_filters and right_filters

    def test_prune_columns_inserts_projection(self, session):
        plan = prune_columns(session.sql("SELECT a FROM t").plan)
        scans_children = [
            n for n in plan.walk() if isinstance(n, Project)
            and isinstance(n.child, Scan)
        ]
        assert scans_children, plan.pretty()
        assert scans_children[-1].schema.names == ["a"]

    def test_optimized_results_match_unoptimized(self, session):
        df = session.sql(
            "SELECT COUNT(*) AS n, SUM(v) AS sv FROM t, u "
            "WHERE a = k AND v > 20 AND b <> 2"
        )
        unoptimized = session.executor.execute(df.plan).collect()
        assert df.collect() == unoptimized


class TestPhysicalExecution:
    def test_scan(self, session):
        assert len(session.sql("SELECT * FROM u").collect()) == 8

    def test_empty_table(self, session):
        assert session.sql("SELECT * FROM e").collect() == []

    def test_global_aggregate_on_empty_input_yields_one_row(self, session):
        out = session.sql("SELECT COUNT(*) AS n FROM t WHERE a > 999")
        assert out.collect() == [{"n": 0}]

    def test_join_inner(self, session):
        out = session.sql("SELECT * FROM t, u WHERE a = k").collect()
        assert len(out) == 8

    def test_join_column_collision_rejected(self, session):
        with pytest.raises(AnalysisError, match="collision"):
            session.sql("SELECT * FROM t, t t2 WHERE t.a = t2.a")

    def test_semi_and_anti_partition_rows(self, session):
        text = ("SELECT * FROM t WHERE {} EXISTS "
                "(SELECT * FROM u WHERE u.k = t.a)")
        semi = session.sql(text.format("")).collect()
        anti = session.sql(text.format("NOT")).collect()
        assert len(semi) == 8
        assert len(semi) + len(anti) == 40

    def test_residual_semi_join(self, session):
        session.create_table(
            "li", [{"ok": 1, "sk": 1}, {"ok": 1, "sk": 2}, {"ok": 2, "sk": 9}]
        )
        out = session.sql(
            "SELECT * FROM li WHERE EXISTS (SELECT * FROM li l2 "
            "WHERE l2.ok = li.ok AND l2.sk <> li.sk)"
        ).collect()
        assert len(out) == 2

    def test_residual_anti_join(self, session):
        session.create_table(
            "li2", [{"ok": 1, "sk": 1}, {"ok": 1, "sk": 2}, {"ok": 2, "sk": 9}]
        )
        out = session.sql(
            "SELECT * FROM li2 WHERE NOT EXISTS (SELECT * FROM li2 l2 "
            "WHERE l2.ok = li2.ok AND l2.sk <> li2.sk)"
        ).collect()
        assert out == [{"ok": 2, "sk": 9}]

    def test_avg_aggregate(self, session):
        rows = session.sql("SELECT AVG(v) AS m FROM u").collect()
        assert rows == [{"m": pytest.approx(35.0)}]

    def test_count_distinct_over_a_filter(self, session):
        rows = session.sql(
            "SELECT COUNT(DISTINCT c) AS u, COUNT(DISTINCT b) AS g FROM t "
            "WHERE b = 1"
        ).collect()
        assert rows == [{"u": 10, "g": 1}]
