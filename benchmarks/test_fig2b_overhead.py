"""Figure 2(b): UPA's execution time normalized to the vanilla engine.

For each query, the harness measures the end-to-end UPA pipeline (all
four phases including RANGE ENFORCER, run twice: once fresh and once on
a neighbouring dataset so both enforcement cases occur, as the paper's
methodology describes) against the vanilla MapReduce evaluation of the
same query, and reports the normalized overhead.

Expected shape (paper): overhead is bounded (the paper reports
19.1 %-130.9 %, average 77.6 % on a 5-node cluster at >100 GB scale;
our single-process engine at laptop scale shows larger ratios because
the O(n) privacy work is amortized over far fewer records — the Fig.
4(a) bench shows the ratio falling as data grows, which is the paper's
actual claim).

Also includes the ablation for the paper's core efficiency idea: the
union-preserving *reuse* of R(M(S')) (a whole release) versus naively
re-reducing the dataset for every sampled neighbour (the removal
outputs alone, from the same sample).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import (
    PERF_SCALE,
    SAMPLE_SIZE,
    cached_tables,
    emit_report,
)
from repro.analysis import format_table
from repro.common.rng import make_rng
from repro.common.timing import Timer
from repro.core import UPAConfig, UPASession
from repro.core.sampling import partition_and_sample
from repro.engine.metrics import MetricsRegistry


def _measure_all(workloads):
    rows = []
    ratios = {}
    for workload in workloads:
        tables = cached_tables(workload, PERF_SCALE, seed=3)
        session = UPASession(UPAConfig(sample_size=SAMPLE_SIZE, seed=17))

        _output, vanilla_time = session.run_vanilla(workload.query, tables)
        # fresh submission
        first = session.run(workload.query, tables, epsilon=0.1)
        # neighbouring resubmission: RANGE ENFORCER's removal case
        neighbour = dict(tables)
        protected = workload.query.protected_table
        neighbour[protected] = tables[protected][:-1]
        second = session.run(workload.query, neighbour, epsilon=0.1)

        upa_time = (first.elapsed_seconds + second.elapsed_seconds) / 2.0
        overhead = (upa_time / vanilla_time - 1.0) * 100.0
        ratios[workload.name] = upa_time / vanilla_time
        rows.append(
            [
                workload.name,
                vanilla_time,
                upa_time,
                overhead,
                second.enforcement.matched_prior,
                first.metrics.get(MetricsRegistry.JOBS),
            ]
        )
    return rows, ratios


def _naive_removal_outputs(query, tables, sample_size, seed):
    """The sampled removal neighbours without the reuse: phase 1 as a
    session's first release draws it, then every neighbour re-folds all
    |x| - 1 mapped elements through the scalar monoid, element by
    element."""
    sample = partition_and_sample(
        query, tables, sample_size, make_rng(seed, "upa-run-1")
    )
    aux = query.build_aux(tables)
    elements = [
        element
        for part in sample.remaining
        for element in query.iter_batch(query.map_batch(part, aux))
    ]
    base = len(elements)
    elements.extend(query.iter_batch(query.map_batch(sample.sampled, aux)))
    return np.vstack([
        query.finalize(
            query.fold(m for j, m in enumerate(elements) if j != skip), aux
        )
        for skip in range(base, len(elements))
    ])


def _reuse_ablation(workloads):
    """Reuse vs naive re-reduce, on a smaller setting (naive is O(n*N))."""
    scale, n, seed = 16_000, 600, 1
    rows = []
    for workload in workloads:
        if workload.name not in ("tpch1", "tpch6", "linreg"):
            continue
        tables = cached_tables(workload, scale, seed=5)
        with Timer() as fast_timer:
            release = UPASession(UPAConfig(sample_size=n, seed=seed)).run(
                workload.query, tables, epsilon=0.1
            )
        with Timer() as slow_timer:
            naive = _naive_removal_outputs(workload.query, tables, n, seed)
        np.testing.assert_allclose(
            release.removal_outputs, naive, rtol=1e-9, err_msg=workload.name
        )
        rows.append(
            [workload.name, fast_timer.elapsed, slow_timer.elapsed,
             slow_timer.elapsed / max(fast_timer.elapsed, 1e-9)]
        )
    return rows


def test_fig2b_overhead(benchmark, workloads):
    rows, ratios = benchmark.pedantic(
        _measure_all, args=(workloads,), rounds=1, iterations=1
    )
    report = format_table(
        [
            "query", "vanilla (s)", "UPA (s)", "overhead %",
            "enforcer removal case hit", "engine jobs",
        ],
        rows,
    )
    report += (
        "\n\npaper shape: overhead bounded, joins highest, declines with "
        "dataset size (see fig4a); paper cluster numbers: 19.1-130.9 %, "
        "avg 77.6 %."
    )
    emit_report("fig2b_overhead", report)

    for name, ratio in ratios.items():
        # No lower bound: a release maps and folds S' through the
        # query's vectorised kernels while run_vanilla is the analyst's
        # per-record job, so an expensive mapper (kmeans, linreg) reads
        # below 1 — a kernel-vs-loop ratio, not free privacy.
        # Wall-clock ratios are large at laptop scale because the vanilla
        # evaluation of a trivial mapper costs milliseconds while the
        # privacy work is O(n); the paper-scale claim (ratio shrinking
        # towards 1 as |x| grows) is asserted by the Fig. 4(a) bench.
        assert ratio < 1000.0, f"{name}: overhead ratio {ratio} implausible"
    # the enforcer's removal case must actually have been exercised
    assert all(row[4] for row in rows)


def test_fig2b_reuse_ablation(benchmark, workloads):
    rows = benchmark.pedantic(
        _reuse_ablation, args=(workloads,), rounds=1, iterations=1
    )
    report = format_table(
        ["query", "reuse (s)", "naive re-reduce (s)", "speedup x"], rows
    )
    report += (
        "\n\nablation of the paper's core idea: reusing R(M(S')) beats "
        "re-reducing the dataset per sampled neighbour; the gap widens "
        "linearly with |x| and n."
    )
    emit_report("fig2b_reuse_ablation", report)
    for _name, fast, slow, speedup in rows:
        assert speedup > 1.5, (_name, speedup)
