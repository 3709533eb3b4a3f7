"""Supplementary: released-answer utility (the paper's section VI-B claim).

The paper argues that accurate sensitivity implies high utility because
noise is proportional to the sensitivity value.  This bench makes the
implication concrete: for TPCH16 (where FLEX's estimate is ~40x the
truth at small scale and grows with data), it compares the mean
absolute error of releases under UPA's inferred sensitivity versus
noise calibrated to FLEX's static sensitivity at the same epsilon, and
sweeps epsilon to show the usual privacy/utility trade-off.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_tables, emit_report
from repro.analysis import format_table
from repro.analysis.utility import noise_with_sensitivity, released_error_curve
from repro.baselines import flex_local_sensitivity
from repro.sql import SQLSession
from repro.tpch.datagen import register_tables
from repro.workloads import workload_by_name

SCALE = 10_000
EPSILONS = (0.01, 0.1, 1.0)


def _measure():
    workload = workload_by_name("tpch16")
    tables = cached_tables(workload, SCALE, seed=3)
    truth = float(workload.query.output(tables)[0])

    study = released_error_curve(
        workload.query, tables, epsilons=EPSILONS, trials=8,
        sample_size=500, seed=5,
    )
    sql = SQLSession()
    register_tables(sql, tables)
    flex_sens = flex_local_sensitivity(
        sql.sql(workload.query.sql_text()).plan, tables
    ).sensitivity

    rows = []
    for point in study.points:
        flex_mae = noise_with_sensitivity(
            truth, flex_sens, point.epsilon, trials=200, seed=9
        )
        rows.append(
            [point.epsilon, point.mean_absolute_error,
             point.mean_relative_error * 100, flex_mae,
             flex_mae / max(point.mean_absolute_error, 1e-12)]
        )
    return truth, flex_sens, rows


def test_utility_upa_vs_flex_noise(benchmark):
    truth, flex_sens, rows = benchmark.pedantic(_measure, rounds=1,
                                                iterations=1)
    report = format_table(
        ["epsilon", "UPA MAE", "UPA rel err %", "FLEX-noise MAE",
         "FLEX/UPA error x"],
        rows,
    )
    report += (
        f"\n\nTPCH16, true answer {truth:.0f}, FLEX sensitivity "
        f"{flex_sens:.0f}: noise calibrated to FLEX's estimate destroys "
        "utility at every epsilon (paper section VI-B's argument)."
    )
    emit_report("utility_epsilon", report)

    # error shrinks as epsilon grows
    maes = [row[1] for row in rows]
    assert maes[0] > maes[-1]
    # FLEX-calibrated noise is at least 5x worse at every epsilon
    for row in rows:
        assert row[4] > 5.0, row
