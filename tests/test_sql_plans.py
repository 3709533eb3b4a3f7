"""Tests for logical plans, the optimizer, and physical execution."""

import pytest

from repro.common.errors import AnalysisError
from repro.sql import SQLSession, col, count_star, lit, sum_
from repro.sql.expr import Column
from repro.sql.logical import Aggregate, Filter, Join, Project, Scan, Sort
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


class TestLogicalValidation:
    def test_filter_unknown_column(self, session):
        scan = session.table("t").plan
        with pytest.raises(AnalysisError):
            Filter(scan, col("missing") > 1)

    def test_project_unknown_column(self, session):
        scan = session.table("t").plan
        with pytest.raises(AnalysisError):
            Project(scan, [col("missing")])

    def test_project_duplicate_names(self, session):
        scan = session.table("t").plan
        with pytest.raises(AnalysisError):
            Project(scan, [col("a"), col("a")])

    def test_join_bad_key_side(self, session):
        left = session.table("t").plan
        right = session.table("u").plan
        with pytest.raises(AnalysisError):
            Join(left, right, [(col("k"), col("k"))])

    def test_join_unknown_type(self, session):
        left = session.table("t").plan
        right = session.table("u").plan
        with pytest.raises(AnalysisError):
            Join(left, right, [(col("a"), col("k"))], how="cross")

    def test_join_schema_merge(self, session):
        join = Join(
            session.table("t").plan,
            session.table("u").plan,
            [(col("a"), col("k"))],
        )
        assert join.schema.names == ["a", "b", "c", "k", "v"]

    def test_semi_join_schema_is_left_only(self, session):
        join = Join(
            session.table("t").plan,
            session.table("u").plan,
            [(col("a"), col("k"))],
            how="semi",
        )
        assert join.schema.names == ["a", "b", "c"]

    def test_residual_validation(self, session):
        with pytest.raises(AnalysisError):
            Join(
                session.table("t").plan,
                session.table("u").plan,
                [(col("a"), col("k"))],
                how="semi",
                residual=col("__r_nope") > 1,
            )
        with pytest.raises(AnalysisError, match="INNER JOIN takes no residual"):
            Join(
                session.table("t").plan,
                session.table("u").plan,
                [(col("a"), col("k"))],
                residual=col("a") > 1,
            )

    def test_aggregate_duplicate_aliases(self, session):
        with pytest.raises(AnalysisError):
            Aggregate(
                session.table("t").plan,
                [],
                [count_star("x"), count_star("x")],
            )

    def test_schema_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Field("a"), Field("a")])

    def test_pretty_print_shows_tree(self, session):
        df = session.table("t").filter(col("a") > 3).select("a")
        text = df.plan.pretty()
        assert "Project" in text and "Filter" in text and "Scan(t)" in text


class TestOptimizerRules:
    def test_substitute(self):
        expr = (col("x") + 1) > col("y")
        replaced = substitute(expr, {"x": col("a")})
        assert replaced.references() == {"a", "y"}

    def test_combined_filters(self, session):
        df = session.table("t").filter(col("a") > 1).filter(col("b") < 3)
        plan = optimize(df.plan)
        filters = [n for n in plan.walk() if isinstance(n, Filter)]
        assert len(filters) == 1

    def test_filter_pushed_through_rename_project(self, session):
        df = session.table("t").select(col("a").alias("x"), "b")
        df = df.filter(col("x") > 5)
        plan = optimize(df.plan)
        # The filter must now sit below the projection.
        node = plan
        assert isinstance(node, Project)

    def test_filter_not_pushed_through_computed_project(self, session):
        df = session.table("t").select((col("a") + 1).alias("x"))
        df = df.filter(col("x") > 5)
        plan = optimize(df.plan)
        assert isinstance(plan, Filter)  # stays above the projection

    def test_filter_split_into_join_sides(self, session):
        df = session.table("t").join(session.table("u"), on=[("a", "k")])
        df = df.filter((col("b") == 1) & (col("v") > 10))
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
        df = session.table("t").select("a")
        plan = prune_columns(df.plan)
        scans_children = [
            n for n in plan.walk() if isinstance(n, Project)
            and isinstance(n.child, Scan)
        ]
        assert scans_children, plan.pretty()
        assert scans_children[-1].schema.names == ["a"]

    def test_optimized_results_match_unoptimized(self, session):
        df = (
            session.table("t")
            .join(session.table("u"), on=[("a", "k")])
            .filter((col("v") > 20) & (col("b") != 2))
            .group_by("b")
            .agg(count_star("n"), sum_(col("v"), "sv"))
            .order_by("b")
        )
        unoptimized = session.executor.execute(df.plan).collect()
        assert df.collect() == unoptimized


class TestPhysicalExecution:
    def test_scan(self, session):
        assert session.table("u").count() == 8

    def test_empty_table(self, session):
        assert session.table("e").collect() == []

    def test_global_aggregate_on_empty_input_yields_one_row(self, session):
        out = session.table("t").filter(col("a") > 999).agg(count_star("n"))
        assert out.collect() == [{"n": 0}]

    def test_group_by(self, session):
        rows = (
            session.table("t").group_by("b").agg(count_star("n")).collect()
        )
        assert {r["b"]: r["n"] for r in rows} == {0: 10, 1: 10, 2: 10, 3: 10}

    def test_grouped_count_shortcut(self, session):
        rows = session.table("t").group_by("b").count("n").collect()
        assert all(r["n"] == 10 for r in rows)

    def test_join_inner(self, session):
        out = session.table("t").join(session.table("u"), on=[("a", "k")])
        assert out.count() == 8

    def test_join_column_collision_rejected(self, session):
        with pytest.raises(AnalysisError):
            session.table("t").join(session.table("t"), on="a").collect()

    def test_left_join_fills_none(self, session):
        out = (
            session.table("u")
            .join(session.table("t"), on=[("k", "a")], how="left")
            .collect()
        )
        assert len(out) == 8
        assert all("b" in row for row in out)

    def test_left_join_unmatched(self, session):
        session.create_table("w", [{"k2": 999, "z": 1}])
        out = (
            session.table("w")
            .join(session.table("u"), on=[("k2", "k")], how="left")
            .collect()
        )
        assert out == [{"k2": 999, "z": 1, "k": None, "v": None}]

    def test_semi_and_anti_partition_rows(self, session):
        base = session.table("t")
        other = session.table("u")
        semi = base.semi_join(other, on=[("a", "k")]).count()
        anti = base.anti_join(other, on=[("a", "k")]).count()
        assert semi + anti == base.count()

    def test_residual_semi_join(self, session):
        session.create_table(
            "li", [{"ok": 1, "sk": 1}, {"ok": 1, "sk": 2}, {"ok": 2, "sk": 9}]
        )
        out = session.table("li").semi_join(
            session.table("li"),
            on=[("ok", "ok")],
            residual=col("__r_sk") != col("sk"),
        )
        assert out.count() == 2

    def test_residual_anti_join(self, session):
        session.create_table(
            "li2", [{"ok": 1, "sk": 1}, {"ok": 1, "sk": 2}, {"ok": 2, "sk": 9}]
        )
        out = session.table("li2").anti_join(
            session.table("li2"),
            on=[("ok", "ok")],
            residual=col("__r_sk") != col("sk"),
        )
        assert out.collect() == [{"ok": 2, "sk": 9}]

    def test_sort_mixed_directions(self, session):
        rows = (
            session.table("t")
            .select("b", "a")
            .order_by("b", "a", ascending=[True, False])
            .collect()
        )
        assert rows[0]["b"] == 0 and rows[0]["a"] == 36

    def test_limit(self, session):
        assert len(session.table("t").limit(5).collect()) == 5

    def test_distinct_rows(self, session):
        out = session.table("t").select("b").distinct().collect()
        assert sorted(r["b"] for r in out) == [0, 1, 2, 3]

    def test_with_column(self, session):
        out = session.table("u").with_column("w", col("v") * 2).first()
        assert out["w"] == out["v"] * 2

    def test_scalar(self, session):
        assert session.table("t").agg(count_star("n")).scalar() == 40

    def test_scalar_rejects_multi_rows(self, session):
        with pytest.raises(AnalysisError):
            session.table("t").select("a").scalar()

    def test_show_renders(self, session, capsys):
        session.table("u").show(2)
        captured = capsys.readouterr().out
        assert "k" in captured and "v" in captured

    def test_explain_prints_plan(self, session, capsys):
        session.table("u").filter(col("v") > 1).explain()
        assert "Scan(u)" in capsys.readouterr().out

    def test_avg_aggregate(self, session):
        from repro.sql.functions import avg

        value = session.table("u").agg(avg(col("v"), "m")).scalar()
        assert value == pytest.approx(35.0)

    def test_count_distinct_in_groups(self, session):
        from repro.sql.functions import count_distinct

        rows = (
            session.table("t")
            .group_by("b")
            .agg(count_distinct(col("c"), "u"))
            .collect()
        )
        assert all(r["u"] == 10 for r in rows)

    def test_sort_single_direction_descending(self, session):
        rows = session.table("u").order_by("v", ascending=False).collect()
        assert [r["v"] for r in rows] == sorted(
            (r["v"] for r in rows), reverse=True
        )
