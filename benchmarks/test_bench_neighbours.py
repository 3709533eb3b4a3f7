"""Batched vs scalar neighbour generation (the union-preserving hot path).

Times the exact pipeline UPA runs per query — map the n sampled
records, all-but-one folds via prefix/suffix, combine with the base
aggregate, finalize 2n neighbour outputs — once through the scalar
monoid defaults (``MapReduceQuery``'s batch-method fallbacks, which
loop over ``map_record``/``combine``/``finalize``) and once through
each workload's vectorized batch kernels.

Writes a machine-readable ``BENCH_neighbours.json`` at the repo root
(override with ``BENCH_NEIGHBOURS_OUTPUT``) so CI can archive it and
readers can diff speedups across commits.  Knobs:

* ``BENCH_NEIGHBOURS_N`` — sample size n (default 1000, the paper's).
* ``BENCH_NEIGHBOURS_SCALE`` — dataset scale (default 8000 rows).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_neighbours.py -q
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

import numpy as np

from benchmarks.conftest import cached_tables, emit_report
from repro.analysis import format_table
from repro.common.rng import make_rng
from repro.core.query import MapReduceQuery
from repro.workloads import Workload, all_workloads

N = int(os.environ.get("BENCH_NEIGHBOURS_N", "1000"))
SCALE = int(os.environ.get("BENCH_NEIGHBOURS_SCALE", "8000"))
OUTPUT = os.environ.get(
    "BENCH_NEIGHBOURS_OUTPUT",
    os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_neighbours.json"
    ),
)
REPEATS = 3
SEED = 17

#: workloads whose batched path must beat the scalar path even at the
#: tiny CI scale (their kernels are pure numpy end to end).
MUST_NOT_REGRESS = ("tpch1", "tpch6")


def _scalar_neighbours(query, records, extra_records, aux) -> np.ndarray:
    """The pipeline through MapReduceQuery's scalar batch defaults."""
    base = MapReduceQuery
    mapped = base.map_batch(query, records, aux)
    extras = base.map_batch(query, extra_records, aux)
    removal = base.finalize_batch(
        query,
        base.combine_batch(
            query, query.zero(), base.prefix_suffix_batch(query, mapped)
        ),
        aux,
    )
    f_x_agg = base.fold_batch(query, mapped)
    addition = base.finalize_batch(
        query, base.combine_batch(query, f_x_agg, extras), aux
    )
    return np.vstack(
        [np.asarray(removal, dtype=float), np.asarray(addition, dtype=float)]
    )


def _batched_neighbours(query, records, extra_records, aux) -> np.ndarray:
    """The same pipeline through the workload's vectorized kernels."""
    mapped = query.map_batch(records, aux)
    extras = query.map_batch(extra_records, aux)
    removal = query.finalize_batch(
        query.combine_batch(
            query.zero(), query.prefix_suffix_batch(mapped)
        ),
        aux,
    )
    f_x_agg = query.fold_batch(mapped)
    addition = query.finalize_batch(
        query.combine_batch(f_x_agg, extras), aux
    )
    return np.vstack(
        [np.asarray(removal, dtype=float), np.asarray(addition, dtype=float)]
    )


def _time(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _measure(workload: Workload) -> Dict[str, Any]:
    tables = cached_tables(workload, SCALE, seed=SEED)
    query = workload.query
    aux = query.build_aux(tables)
    records = tables[query.protected_table][:N]
    rng = make_rng(SEED, f"bench-neighbours-{workload.name}")
    extra_records = list(
        query.sample_domain_batch(rng, tables, len(records))
    )

    scalar_out = _scalar_neighbours(query, records, extra_records, aux)
    batched_out = _batched_neighbours(query, records, extra_records, aux)
    close = bool(
        np.allclose(batched_out, scalar_out, rtol=1e-9, atol=1e-12)
    )
    max_diff = (
        float(np.max(np.abs(batched_out - scalar_out)))
        if scalar_out.size
        else 0.0
    )

    scalar_seconds = _time(
        _scalar_neighbours, query, records, extra_records, aux
    )
    batched_seconds = _time(
        _batched_neighbours, query, records, extra_records, aux
    )
    return {
        "n": len(records),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / max(batched_seconds, 1e-12),
        "allclose": close,
        "max_abs_diff": max_diff,
    }


def test_bench_batched_neighbours(workloads):
    results: Dict[str, Dict[str, Any]] = {}
    rows: List[list] = []
    for workload in workloads:
        entry = _measure(workload)
        results[workload.name] = entry
        rows.append(
            [
                workload.name,
                entry["n"],
                f"{entry['scalar_seconds']:.4f}",
                f"{entry['batched_seconds']:.4f}",
                f"{entry['speedup']:.1f}x",
                entry["allclose"],
            ]
        )

    payload = {
        "benchmark": "batched_neighbour_generation",
        "sample_size": N,
        "scale": SCALE,
        "repeats": REPEATS,
        "workloads": results,
    }
    output = os.path.abspath(OUTPUT)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report = format_table(
        ["query", "n", "scalar (s)", "batched (s)", "speedup", "allclose"],
        rows,
    )
    report += f"\n\n(JSON written to {output})"
    emit_report("bench_neighbours", report)

    # Correctness is non-negotiable at any scale.
    for name, entry in results.items():
        assert entry["allclose"], (name, entry["max_abs_diff"])
    # Speed: asserted only where the batched path is pure numpy and the
    # margin is huge; ">= 1.0" keeps the check robust on noisy CI boxes.
    for name in MUST_NOT_REGRESS:
        assert results[name]["speedup"] >= 1.0, (name, results[name])
