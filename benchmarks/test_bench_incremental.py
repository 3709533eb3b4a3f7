"""Incremental session sweep: primed ``append()`` vs a cold re-run.

For each swept row count the harness builds a tpch6 dataset, holds
back ~1% of the protected table, and runs two sessions with identical
seeds side by side:

* the *incremental* session releases via ``run`` then two ``append``
  calls (the first append primes the element-block cache, the second is
  the timed release), and
* the *cold* session performs the same three releases as full
  ``run()`` calls over the externally-grown table, so both sessions'
  per-run RNG streams (sample draw, noise) stay in lockstep.

The timed pair is release #3 on both sides: the primed append versus
the cold re-run of the identical release.  Bitwise equivalence
(``max_abs_diff == 0.0`` across noisy/plain/removal/addition outputs)
is asserted unconditionally at every sweep point — the incremental
path may only skip recomputation, never change results.  The speedup
gate (default ``>= 5x``) is enforced only when ``os.cpu_count() >= 4``
and the point has ``rows >= 10_000``; smaller machines record honest
numbers and report the gate as skipped.

Writes ``BENCH_incremental.json`` at the repo root (override with
``BENCH_INCR_OUTPUT``).

Knobs:

* ``BENCH_INCR_ROWS`` — comma-separated row counts (default
  ``1000,4000,10000``).
* ``BENCH_INCR_MIN_SPEEDUP`` — the conditional gate (default 5.0).
* ``BENCH_INCR_REPEATS`` — best-of repetitions of the whole paired
  experiment (default 3); each repetition uses fresh sessions because
  a release cannot be replayed inside one session.
* ``BENCH_INCR_SAMPLE`` — UPA sample size (default 100; large enough
  that successive releases separate under RANGE ENFORCER at every
  swept scale).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_incremental.py -q
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Dict, List

from benchmarks.conftest import emit_report
from repro.analysis import format_table
from repro.core.session import UPAConfig, UPASession
from repro.workloads import workload_by_name

ROWS = [
    int(v)
    for v in os.environ.get("BENCH_INCR_ROWS", "1000,4000,10000").split(",")
]
MIN_SPEEDUP = float(os.environ.get("BENCH_INCR_MIN_SPEEDUP", "5.0"))
REPEATS = int(os.environ.get("BENCH_INCR_REPEATS", "3"))
SAMPLE = int(os.environ.get("BENCH_INCR_SAMPLE", "100"))
OUTPUT = os.environ.get(
    "BENCH_INCR_OUTPUT",
    os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_incremental.json"
    ),
)
SEED = 11
WORKLOAD = "tpch6"
DELTA_FRACTION = 0.01

GATE_MIN_ROWS = 10_000
GATE_MIN_CPUS = 4


def _max_abs_diff(a, b) -> float:
    import numpy as np

    worst = 0.0
    for x, y in (
        (a.noisy_output, b.noisy_output),
        (a.plain_output, b.plain_output),
        (a.removal_outputs, b.removal_outputs),
        (a.addition_outputs, b.addition_outputs),
    ):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            return float("inf")
        if x.size:
            worst = max(worst, float(np.max(np.abs(x - y))))
    return worst


def _experiment(rows: int) -> Dict[str, Any]:
    """One paired run; returns timings for release #3 on both paths."""
    workload = workload_by_name(WORKLOAD)
    protected = workload.query.protected_table
    tables = workload.make_tables(rows, SEED)
    records = tables[protected]
    delta_n = max(4, int(len(records) * DELTA_FRACTION))
    delta = records[-delta_n:]
    del records[-delta_n:]
    half = delta_n // 2

    incr = UPASession(UPAConfig(seed=SEED, sample_size=SAMPLE))
    cold = UPASession(UPAConfig(seed=SEED, sample_size=SAMPLE))
    tab_i = dict(tables)
    tab_i[protected] = list(records)
    tab_c = dict(tables)
    tab_c[protected] = list(records)

    incr.run(workload.query, tab_i)
    cold.run(workload.query, tab_c)
    incr.append(delta[:half])  # primes the element-block cache
    tab_c[protected].extend(delta[:half])
    cold.run(workload.query, tab_c)

    start = time.perf_counter()
    r_i = incr.append(delta[half:])
    append_seconds = time.perf_counter() - start
    tab_c[protected].extend(delta[half:])
    start = time.perf_counter()
    r_c = cold.run(workload.query, tab_c)
    cold_seconds = time.perf_counter() - start

    stats = incr._last_incremental or {}
    return {
        "append_seconds": append_seconds,
        "cold_seconds": cold_seconds,
        "max_abs_diff": _max_abs_diff(r_i, r_c),
        "delta_fraction": stats.get("delta_fraction", 1.0),
        "records_reused": stats.get("records_reused", 0),
        "appended_rows": delta_n - half,
        "base_rows": len(records) + half,
    }


def _sweep() -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    for rows in ROWS:
        best: Dict[str, Any] = {}
        worst_diff = 0.0
        for _ in range(REPEATS):
            trial = _experiment(rows)
            worst_diff = max(worst_diff, trial["max_abs_diff"])
            if not best or trial["append_seconds"] < best["append_seconds"]:
                best = trial
        entry = dict(best)
        entry["max_abs_diff"] = worst_diff
        entry["rows"] = rows
        entry["speedup_vs_cold"] = entry["cold_seconds"] / max(
            entry["append_seconds"], 1e-12
        )
        entries.append(entry)
    return entries


def test_bench_incremental():
    sweep = _sweep()
    cpu_count = os.cpu_count() or 1
    gate_enforced = cpu_count >= GATE_MIN_CPUS and any(
        e["rows"] >= GATE_MIN_ROWS for e in sweep
    )
    payload = {
        "benchmark": "incremental_append_sweep",
        "environment": {
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": REPEATS,
            "sample_size": SAMPLE,
            "seed": SEED,
            "workload": WORKLOAD,
            "delta_fraction": DELTA_FRACTION,
        },
        "gate": {
            "min_rows": GATE_MIN_ROWS,
            "min_cpus": GATE_MIN_CPUS,
            "min_speedup": MIN_SPEEDUP,
            "enforced": gate_enforced,
            "reason": (
                "enforced: parallel hardware and a large-enough sweep point"
                if gate_enforced
                else (
                    f"skipped: cpu_count={cpu_count} < {GATE_MIN_CPUS} or "
                    f"no sweep point with rows >= {GATE_MIN_ROWS}; honest "
                    "numbers recorded anyway"
                )
            ),
        },
        "sweep": sweep,
    }
    output = os.path.abspath(OUTPUT)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    table_rows = [
        [
            e["rows"],
            e["appended_rows"],
            f"{e['append_seconds'] * 1e3:.2f}",
            f"{e['cold_seconds'] * 1e3:.2f}",
            f"{e['speedup_vs_cold']:.1f}x",
            f"{e['delta_fraction']:.4f}",
            e["max_abs_diff"],
        ]
        for e in sweep
    ]
    report = format_table(
        ["rows", "appended", "append (ms)", "cold (ms)",
         "speedup", "delta_frac", "max_abs_diff"],
        table_rows,
    )
    report += f"\n(JSON written to {output})"
    emit_report("bench_incremental", report)

    # Bitwise equivalence is non-negotiable at any scale, on any machine.
    for entry in sweep:
        assert entry["max_abs_diff"] == 0.0, entry
        assert entry["records_reused"] > 0, entry
        assert entry["delta_fraction"] < 0.05, entry
    if gate_enforced:
        gated = [e for e in sweep if e["rows"] >= GATE_MIN_ROWS]
        assert gated, "sweep missing the gated point; widen BENCH_INCR_ROWS"
        for entry in gated:
            assert entry["speedup_vs_cold"] >= MIN_SPEEDUP, entry
