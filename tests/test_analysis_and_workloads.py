"""Tests for analysis utilities, the workload registry, and integration."""

import numpy as np
import pytest

from repro.analysis import (
    format_table,
    format_value,
    relative_rmse_percent,
    rmse,
    study_neighbourhood,
)
from repro.workloads import all_workloads, workload_by_name


class TestRmse:
    def test_zero_for_exact(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_relative_percent(self):
        # estimates off by exactly 10% of a constant truth
        assert relative_rmse_percent([110.0], [100.0]) == pytest.approx(10.0)

    def test_relative_zero_truth_falls_back(self):
        assert relative_rmse_percent([1.0], [0.0]) == 100.0


class TestReporting:
    def test_format_value_styles(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(3.14159) == "3.142"
        assert format_value(1.5e9) == "1.500e+09"
        assert format_value(2.0e-7) == "2.000e-07"
        assert format_value("text") == "text"

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1.0], ["longer", 123456789.0]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned


class TestNeighbourhoodStudy:
    def test_study_runs_and_covers(self, tpch_tables):
        from repro.tpch.workload import query_by_name

        study = study_neighbourhood(
            query_by_name("tpch1"),
            tpch_tables,
            sample_sizes=(50, 200),
            addition_samples=50,
        )
        assert study.query_name == "tpch1"
        assert len(study.ranges) == 2
        for entry in study.ranges:
            assert 0.0 <= entry.coverage <= 1.0
        # larger samples cover at least as much for a count query
        assert study.ranges[-1].coverage >= 0.9


class TestWorkloadRegistry:
    def test_nine_workloads(self):
        workloads = all_workloads()
        assert len(workloads) == 9
        assert [w.name for w in workloads] == [
            "tpch1", "tpch4", "tpch13", "tpch16", "tpch21",
            "tpch6", "tpch11", "kmeans", "linreg",
        ]

    def test_support_counts_match_table_ii(self):
        workloads = all_workloads()
        assert sum(w.flex_supported for w in workloads) == 5
        assert sum(not w.flex_supported for w in workloads) == 4

    def test_query_types(self):
        types = {w.name: w.query_type for w in all_workloads()}
        assert types["tpch1"] == "count"
        assert types["tpch6"] == "arithmetic"
        assert types["kmeans"] == "ml"

    def test_tables_factory(self):
        workload = workload_by_name("tpch1")
        tables = workload.make_tables(500, 1)
        assert len(tables["lineitem"]) == 500

    def test_ml_tables_factory(self):
        workload = workload_by_name("kmeans")
        tables = workload.make_tables(300, 2)
        assert len(tables["points"]) == 300

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            workload_by_name("tpch99")


class TestEndToEndIntegration:
    def test_full_pipeline_all_workloads_small(self):
        """Every workload runs end-to-end under UPA at toy scale."""
        from repro.core import UPAConfig, UPASession

        for workload in all_workloads():
            tables = workload.make_tables(600, 3)
            session = UPASession(UPAConfig(sample_size=40, seed=1))
            result = session.run(workload.query, tables, epsilon=1.0)
            assert result.noisy_output.shape == (
                workload.query.output_dim,
            ), workload.name
            assert result.local_sensitivity >= 0.0

    def test_utility_degrades_gracefully(self):
        """Noisy counts stay within a few sensitivities of the truth."""
        from repro.core import UPAConfig, UPASession
        from repro.tpch.workload import query_by_name

        workload = workload_by_name("tpch1")
        tables = workload.make_tables(2000, 5)
        query = query_by_name("tpch1")
        session = UPASession(UPAConfig(sample_size=100, seed=2))
        result = session.run(query, tables, epsilon=1.0)
        truth = query.output(tables)[0]
        # Laplace(scale=2) at eps=1: within ~20 with overwhelming probability
        assert abs(result.noisy_scalar() - truth) < 50
