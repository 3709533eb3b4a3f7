"""Figure 3: output distributions of all neighbouring datasets, and how
well UPA's inferred range covers them at different sample sizes.

For each query the harness enumerates *every* removal neighbour plus a
1000-record addition pool (brute force; the paper's scatter plots), then
overlays UPA's inferred min/max lines for n in {100, 1000, 5000} and
reports per-query coverage, plus the estimator ablation: the paper's
verbatim Algorithm 1 (fixed 1/99 normal percentiles of the same fit, no
envelope, no discrete fallback) versus UPA's estimator
(population-extrapolated percentiles + sampled-output envelope +
discrete fallback).

Expected shape (paper): with n = 1000 the inferred range covers
>= 98.9 % of all neighbour outputs for eight of the nine queries;
TPCH21 is the exception (outlier influences).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import cached_ground_truth, cached_tables, emit_report
from repro.analysis import format_table
from repro.core import UPAConfig, UPASession
from repro.core.inference import InferredRange, ndtri

SCALE = 20_000
SAMPLE_SIZES = (100, 1000, 5000)


def _inferred(workload, tables, sample_size):
    session = UPASession(UPAConfig(sample_size=sample_size, seed=31))
    return session.infer_sensitivity(workload.query, tables)


def _paper_verbatim(inferred):
    """Algorithm 1 l.17-21 as printed: the 1st and 99th percentiles of
    the normal fitted to the sampled outputs, nothing else."""
    spread = ndtri(0.99) * inferred.std
    return InferredRange(
        lower=inferred.mean - spread, upper=inferred.mean + spread,
        mean=inferred.mean, std=inferred.std,
        used_fallback=np.zeros_like(inferred.used_fallback),
    )


def _study(workloads):
    rows = []
    coverages = {}
    for workload in workloads:
        tables = cached_tables(workload, SCALE, seed=3)
        truth = cached_ground_truth(workload, SCALE, seed=3)
        inferred = {n: _inferred(workload, tables, n) for n in SAMPLE_SIZES}
        per_n = [
            inferred[n].coverage(truth.neighbour_outputs)
            for n in SAMPLE_SIZES
        ]
        verbatim = _paper_verbatim(inferred[1000]).coverage(
            truth.neighbour_outputs
        )
        coverages[workload.name] = per_n[1]  # n = 1000
        rows.append([workload.name] + [c * 100 for c in per_n]
                    + [verbatim * 100, truth.range_width])
    return rows, coverages


def _panels(workloads) -> str:
    """ASCII renderings of the scatter panels (first coordinate only)."""
    from repro.analysis import study_neighbourhood
    from repro.analysis.figures import render_fig3_panel

    panels = []
    for workload in workloads:
        if workload.name not in ("tpch1", "tpch13", "tpch6"):
            continue
        tables = cached_tables(workload, SCALE, seed=3)
        study = study_neighbourhood(
            workload.query, tables, sample_sizes=(100, 1000),
            addition_samples=500, seed=3,
        )
        panels.append(render_fig3_panel(study))
    return "\n\n".join(panels)


def test_fig3_neighbourhood_coverage(benchmark, workloads):
    rows, coverages = benchmark.pedantic(
        _study, args=(workloads,), rounds=1, iterations=1
    )
    headers = (
        ["query"]
        + [f"coverage % (n={n})" for n in SAMPLE_SIZES]
        + ["coverage % (paper-verbatim, n=1000)", "true envelope width"]
    )
    report = format_table(headers, rows)
    report += (
        "\n\npaper shape: n=1000 covers >= 98.9 % of all neighbour outputs "
        "for 8/9 queries; the 9th (TPCH21-style outliers) is rescued by "
        "RANGE ENFORCER's clamping, not by the estimate."
    )
    report += "\n\n" + _panels(workloads)
    emit_report("fig3_coverage", report)

    well_covered = sum(1 for c in coverages.values() if c >= 0.989)
    assert well_covered >= 8, coverages
    # UPA's estimator is never worse than the paper-verbatim one
    for row in rows:
        assert row[2] >= row[4] - 1e-9, row


def test_fig3_sample_size_monotonicity(benchmark, workloads):
    """More samples never systematically hurt coverage (n=100 vs n=5000)."""

    def run():
        deltas = []
        for workload in workloads:
            tables = cached_tables(workload, SCALE, seed=3)
            truth = cached_ground_truth(workload, SCALE, seed=3)
            outputs = truth.neighbour_outputs
            small = _inferred(workload, tables, 100).coverage(outputs)
            large = _inferred(workload, tables, 5000).coverage(outputs)
            deltas.append((workload.name, small, large))
        return deltas

    deltas = benchmark.pedantic(run, rounds=1, iterations=1)
    report = format_table(
        ["query", "coverage (n=100)", "coverage (n=5000)"],
        [[n, s * 100, l * 100] for n, s, l in deltas],
    )
    emit_report("fig3_sample_size", report)
    improved_or_equal = sum(1 for _n, s, l in deltas if l >= s - 0.02)
    assert improved_or_equal >= 8
