"""Tests for the text figure renderer."""

import numpy as np
import pytest

from repro.analysis.figures import ascii_histogram, render_fig3_panel


class TestAsciiFigures:
    def test_histogram_peak_marked_dense(self):
        values = np.concatenate([np.zeros(100), np.ones(2) * 10])
        strip = ascii_histogram(values, width=20)
        assert len(strip) == 20
        assert strip[0] == "@"  # the dense bin

    def test_range_markers_present(self):
        values = np.linspace(0, 10, 50)
        strip = ascii_histogram(values, lower=0.0, upper=10.0, width=30)
        assert strip[0] == "["
        assert strip[-1] == "]"

    def test_constant_values(self):
        strip = ascii_histogram(np.array([5.0, 5.0]), width=10)
        assert len(strip) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_histogram(np.array([]))

    def test_render_fig3_panel(self, tpch_tables):
        from repro.analysis import study_neighbourhood
        from repro.tpch.workload import query_by_name

        study = study_neighbourhood(
            query_by_name("tpch1"), tpch_tables,
            sample_sizes=(50,), addition_samples=50,
        )
        panel = render_fig3_panel(study)
        assert "tpch1" in panel
        assert "coverage" in panel
        assert "n=50" in panel
