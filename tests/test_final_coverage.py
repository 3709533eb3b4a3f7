"""Last-mile coverage: spots the main suites touch only implicitly."""

import pytest

from repro.core.sqlbridge import compile_sql


class TestSqlBridgeMore:
    @pytest.fixture
    def tables(self):
        return {
            "t": [{"v": i, "g": i % 2} for i in range(12)],
            "u": [{"v": 100 + i, "g": i % 2} for i in range(4)],
        }

    def test_sum_of_expression_on_protected_path(self, tables):
        query = compile_sql(
            "SELECT SUM(v * 2) AS s FROM t WHERE g = 0", tables, "t"
        )
        expected = sum(i * 2 for i in range(12) if i % 2 == 0)
        assert query.output(tables)[0] == expected


class TestCliCompareUnsupported:
    def test_compare_ml_workload_shows_unsupported(self, capsys):
        from repro.cli import main

        assert main(["compare", "kmeans", "--scale", "400"]) == 0
        out = capsys.readouterr().out
        assert "unsupported" in out


class TestDistributionStudyDetails:
    def test_width_ratio_positive(self, tpch_tables):
        from repro.analysis import study_neighbourhood
        from repro.tpch.workload import query_by_name

        study = study_neighbourhood(
            query_by_name("tpch6"), tpch_tables,
            sample_sizes=(100,), addition_samples=50,
        )
        entry = study.ranges[0]
        assert entry.width_ratio > 0
        assert entry.sample_size == 100

    def test_truth_envelope_matches_bruteforce(self, tpch_tables):
        from repro.analysis import study_neighbourhood
        from repro.baselines import exact_local_sensitivity
        from repro.tpch.workload import query_by_name

        study = study_neighbourhood(
            query_by_name("tpch1"), tpch_tables,
            sample_sizes=(50,), addition_samples=50, seed=0,
        )
        direct = exact_local_sensitivity(
            query_by_name("tpch1"), tpch_tables,
            addition_samples=50, seed=0,
        )
        assert study.truth.range_width == direct.range_width
