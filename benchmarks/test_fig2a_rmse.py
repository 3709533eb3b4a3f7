"""Figure 2(a): RMSE of inferred local sensitivity, UPA vs FLEX.

For each of the nine queries, over several independently generated
datasets (trials), compare:

* UPA's inferred local sensitivity (Algorithm 1 + the estimator
  documented in ``repro.core.inference``),
* FLEX's statically derived sensitivity (where supported),

against the brute-force ground truth (Definition II.1, exhaustive
removals + a sampled addition pool), as relative RMSE in percent.

Expected shape (paper): UPA small for all nine (paper average 3.81 %);
FLEX exact on TPCH1 but one-to-many orders of magnitude worse on the
join-heavy queries, worst on TPCH16/TPCH21; TPCH21 is UPA's least
accurate query (outlier influences the sampled normal fit misses).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import (
    ACCURACY_SCALE,
    SAMPLE_SIZE,
    cached_ground_truth,
    cached_tables,
    emit_report,
)
from repro.analysis import format_table, relative_rmse_percent
from repro.baselines import flex_local_sensitivity
from repro.common.errors import FlexUnsupportedError
from repro.core import UPAConfig, UPASession
from repro.sql import SQLSession
from repro.tpch.datagen import register_tables

TRIALS = (3, 7, 12)


def _run_trials(workloads):
    per_query = {}
    for workload in workloads:
        upa_estimates, flex_estimates, truths = [], [], []
        flex_ok = True
        for seed in TRIALS:
            tables = cached_tables(workload, ACCURACY_SCALE, seed)
            truth = cached_ground_truth(workload, ACCURACY_SCALE, seed)
            truths.append(truth.local_sensitivity)

            session = UPASession(
                UPAConfig(sample_size=SAMPLE_SIZE, seed=seed * 101 + 9)
            )
            result = session.run(workload.query, tables, epsilon=0.1)
            upa_estimates.append(result.estimated_local_sensitivity)

            if flex_ok and hasattr(workload.query, "sql_text"):
                sql = SQLSession()
                register_tables(sql, tables)
                try:
                    flex_estimates.append(
                        flex_local_sensitivity(
                            sql.sql(workload.query.sql_text()).plan, tables
                        ).sensitivity
                    )
                except FlexUnsupportedError:
                    flex_ok = False
            else:
                flex_ok = False
        per_query[workload.name] = {
            "truths": truths,
            "upa": upa_estimates,
            "flex": flex_estimates if flex_ok else None,
        }
    return per_query


def test_fig2a_sensitivity_rmse(benchmark, workloads):
    per_query = benchmark.pedantic(
        _run_trials, args=(workloads,), rounds=1, iterations=1
    )

    rows = []
    upa_errors = {}
    flex_errors = {}
    for name, data in per_query.items():
        upa_rmse = relative_rmse_percent(data["upa"], data["truths"])
        upa_errors[name] = upa_rmse
        if data["flex"] is not None:
            flex_rmse = relative_rmse_percent(data["flex"], data["truths"])
            flex_errors[name] = flex_rmse
        else:
            flex_rmse = None
        rows.append(
            [
                name,
                float(np.mean(data["truths"])),
                float(np.mean(data["upa"])),
                upa_rmse,
                float(np.mean(data["flex"])) if data["flex"] else None,
                flex_rmse,
            ]
        )

    report = format_table(
        [
            "query", "ground truth LS (mean)", "UPA LS (mean)",
            "UPA RMSE %", "FLEX LS (mean)", "FLEX RMSE %",
        ],
        rows,
    )
    avg_upa = float(np.mean(list(upa_errors.values())))
    report += (
        f"\n\naverage UPA relative RMSE: {avg_upa:.2f} % "
        "(paper: 3.81 %)\n"
        "paper shape: FLEX exact on TPCH1; 1-5+ orders of magnitude worse "
        "than UPA on join queries; TPCH21 worst for both."
    )
    emit_report("fig2a_rmse", report)

    # --- shape assertions -------------------------------------------------
    # UPA is near-exact on the discrete count queries.
    for name in ("tpch1", "tpch13", "tpch16"):
        assert upa_errors[name] < 25.0, (name, upa_errors[name])
    # FLEX matches the trivial count exactly (paper: zero error).
    assert flex_errors["tpch1"] == pytest.approx(0.0, abs=1e-9)
    # FLEX's error explodes on the multi-join/filter queries.
    for name in ("tpch16", "tpch21"):
        assert flex_errors[name] > 100.0 * max(upa_errors[name], 1.0), name
    # FLEX is never meaningfully better than UPA on supported queries.
    for name, flex_rmse in flex_errors.items():
        assert flex_rmse >= upa_errors[name] - 1e-6, name
    # Overall UPA error stays moderate (paper: 3.81 %; our synthetic data
    # has sparser filters, see EXPERIMENTS.md).
    assert avg_upa < 40.0
