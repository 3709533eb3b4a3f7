"""Disabled-tracer overhead on the union-preserving hot path.

The observability layer promises to be zero-cost when off: the ambient
tracer defaults to :data:`~repro.obs.tracing.NULL_TRACER`, whose
``span()`` hands back one shared no-op context manager, and hot paths
gate attribute construction on ``tracer.enabled``.  This benchmark
holds that promise to a number.

Span count per run is fixed (~8: one run span, five phases, two engine
jobs) regardless of data size, so the right metric is the *absolute*
cost those no-op entries add, expressed against what one real
``UPASession.run`` costs at the same configuration:

    overhead = (traced_kernel - bare_kernel) / session_run_seconds

The kernel is the batched neighbour-generation pipeline (the same one
``test_bench_neighbours`` times) bare vs wrapped in disabled-tracer
spans at session granularity.  The assertion is overhead < 5 %; the
raw kernel-vs-kernel ratio and the enabled-tracer cost are recorded in
the JSON artifact for the curious (enabled tracing is allowed to cost
something).

A second test holds the *enabled* live-monitoring stack to the same
bound at run granularity: a real ``UPASession.run`` with tracer,
ledger, alert engine, a sampling profiler, and a Prometheus render per
run (one scrape's worth of work) must stay within 5 % of a bare
session run.

A third test holds *continuous monitoring* to the bound: a session
run with a :class:`~repro.obs.timeseries.TimeSeriesStore` attached —
per-release ticks, windowed alert evaluation, and the wall-clock
sampler thread running at an aggressive 50 ms interval (20× the
default rate) — must stay within 5 % of a bare run.

Writes ``BENCH_obs_overhead.json`` at the repo root (override with
``BENCH_OBS_OUTPUT``).  Knobs:

* ``BENCH_OBS_N`` — sample size n (default 1000).
* ``BENCH_OBS_SCALE`` — dataset scale (default 8000 rows).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_obs_overhead.py -q
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
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Tracer
from repro.workloads import workload_by_name

N = int(os.environ.get("BENCH_OBS_N", "1000"))
SCALE = int(os.environ.get("BENCH_OBS_SCALE", "8000"))
OUTPUT = os.environ.get(
    "BENCH_OBS_OUTPUT",
    os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_obs_overhead.json"
    ),
)
REPEATS = 5
SEED = 17

#: the acceptance bound: disabled tracing must stay under this.
MAX_DISABLED_OVERHEAD = 0.05

#: the enabled live stack (tracer + ledger + alerts + profiler + one
#: Prometheus render) is held to the same bound per session run.
MAX_LIVE_OVERHEAD = 0.05

#: continuous time-series sampling (per-release ticks + windowed alert
#: evaluation + the sampler thread) is held to the same bound.
MAX_SAMPLING_OVERHEAD = 0.05

#: sampler interval used by the sampling-overhead test — 20× faster
#: than the 1 s default so the run actually overlaps several wall-clock
#: ticks; a harsher setting than any real deployment needs.
SAMPLING_INTERVAL = 0.05

#: sampling rate used by the live-overhead test — the default 100 Hz
#: halved, matching what a run monitored over a few seconds needs.
LIVE_PROFILER_HZ = 50.0

#: spans the instrumented session enters per run (upa.run + five
#: phases + two engine.job spans) — the granularity we reproduce here.
SPANS_PER_RUN = 8

#: workloads to measure; tpch1/tpch6 are the pure-numpy hot paths where
#: any fixed per-run cost is most visible.
WORKLOADS = ("tpch1", "tpch6")


def _neighbours_bare(query, records, extra_records, aux) -> np.ndarray:
    """Batched neighbour generation with no tracing at all."""
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


def _neighbours_traced(tracer, query, records, extra_records, aux):
    """The same pipeline wrapped in spans at session granularity.

    Mirrors UPASession.run: one outer run span, phase spans around each
    stage, engine.job-like spans inside the map phase, with the same
    ``tracer.enabled`` gating the real call sites use.
    """
    run_span = (
        tracer.span("upa.run", query=query.name, sample_size=len(records))
        if tracer.enabled else NULL_SPAN
    )
    with run_span:
        with tracer.span("phase:partition_sample"):
            pass
        with tracer.span("phase:map"):
            with tracer.span("engine.job", partitions=2):
                mapped = query.map_batch(records, aux)
            with tracer.span("engine.job", partitions=2):
                extras = query.map_batch(extra_records, aux)
        with tracer.span("phase:reduce"):
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
        with tracer.span("phase:inference"):
            pass
        with tracer.span("phase:noise"):
            pass
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


def _session_run_seconds(workload, tables) -> float:
    """Wall time of one real (untraced) UPASession.run at this config."""
    from repro.core.session import UPAConfig, UPASession

    session = UPASession(UPAConfig(epsilon=0.1, sample_size=N, seed=SEED))
    return _time(session.run, workload.query, tables)


#: live-vs-bare comparisons time batches of runs with bare and live
#: samples interleaved: a single ~100 ms run on a shared box carries
#: enough scheduler jitter (and slow machine drift between the two
#: measurement windows) to swamp a 5 % bound.
RUNS_PER_SAMPLE = 3
LIVE_REPEATS = 7


def _interleaved_best(bare_once, live_once) -> Dict[str, float]:
    """Per-run best-of wall times for two paths, sampled interleaved.

    Each timed sample is a batch of ``RUNS_PER_SAMPLE`` calls; bare
    and live batches alternate for ``LIVE_REPEATS`` rounds so machine
    drift hits both paths equally, and the per-run minimum over rounds
    drops scheduler noise.
    """
    best = {"bare": float("inf"), "live": float("inf")}
    for _ in range(LIVE_REPEATS):
        for key, fn in (("bare", bare_once), ("live", live_once)):
            start = time.perf_counter()
            for _ in range(RUNS_PER_SAMPLE):
                fn()
            best[key] = min(best[key], time.perf_counter() - start)
    return {key: value / RUNS_PER_SAMPLE for key, value in best.items()}


def _timed_session_runs(workload, tables) -> Dict[str, float]:
    """Interleaved bare/live per-run wall times of full session runs.

    The live path runs the whole monitoring stack the way ``repro run
    --serve --profile`` wires it: in-memory tracer, ledger with an
    attached alert engine, a sampling profiler, and one Prometheus
    render of the engine's metrics snapshot (one scrape's worth of
    exporter work).  Both paths construct the session inside the timed
    region so setup cost cancels.
    """
    from repro.core.session import UPAConfig, UPASession
    from repro.obs.exporters import render_prometheus
    from repro.obs.ledger import PrivacyLedger
    from repro.obs.profiler import SamplingProfiler

    def bare_once():
        session = UPASession(
            UPAConfig(epsilon=0.1, sample_size=N, seed=SEED)
        )
        session.run(workload.query, tables)

    def live_once():
        session = UPASession(
            UPAConfig(epsilon=0.1, sample_size=N, seed=SEED),
            tracer=Tracer(),
            ledger=PrivacyLedger(),
        )
        session.attach_alerts()
        profiler = SamplingProfiler(hz=LIVE_PROFILER_HZ)
        profiler.start()
        try:
            session.run(workload.query, tables)
        finally:
            profiler.stop()
        render_prometheus(session.engine.metrics.snapshot())

    return _interleaved_best(bare_once, live_once)


def _timed_sampling_runs(workload, tables) -> Dict[str, float]:
    """Interleaved bare/sampled per-run wall times of session runs.

    The sampled path wires continuous monitoring exactly the way
    ``repro run --timeseries --serve`` does: ``attach_timeseries``
    hangs the store (and the windowed alert engine it notifies) off the
    session, every release ticks it deterministically, and the daemon
    sampler adds wall-clock ticks at ``SAMPLING_INTERVAL``.
    """
    from repro.core.session import UPAConfig, UPASession

    def bare_once():
        session = UPASession(
            UPAConfig(epsilon=0.1, sample_size=N, seed=SEED)
        )
        session.run(workload.query, tables)

    def live_once():
        session = UPASession(
            UPAConfig(epsilon=0.1, sample_size=N, seed=SEED)
        )
        store = session.attach_timeseries(
            interval=SAMPLING_INTERVAL, start=True
        )
        try:
            session.run(workload.query, tables)
        finally:
            store.stop()

    return _interleaved_best(bare_once, live_once)


def _measure_sampling(name: str) -> Dict[str, Any]:
    workload = workload_by_name(name)
    tables = cached_tables(workload, SCALE, seed=SEED)
    timing = _timed_sampling_runs(workload, tables)
    bare, live = timing["bare"], timing["live"]
    added = max(0.0, live - bare)
    return {
        "n": N,
        "sampling_interval_seconds": SAMPLING_INTERVAL,
        "runs_per_sample": RUNS_PER_SAMPLE,
        "repeats": LIVE_REPEATS,
        "bare_run_seconds": bare,
        "live_run_seconds": live,
        "added_seconds": added,
        "live_overhead": added / bare,
    }


def _measure_with_retry(measure, names, bound,
                        max_retries: int = 2) -> Dict[str, Dict[str, Any]]:
    """Measure each workload, re-measuring while over ``bound``.

    These are sub-100 ms wall-clock comparisons on whatever box CI
    hands us; one unlucky measurement window (a neighbour briefly
    pinning the core) can push a healthy configuration over a 5 %
    bound.  Retries *combine* with earlier passes by taking the
    per-path minimum — noise only ever inflates a wall-clock sample,
    so the min across passes converges on the true cost, while a
    genuine regression keeps every pass over the bound.  The artifact
    records the combined estimate and how many passes fed it.
    """
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        entry = measure(name)
        passes = 1
        while entry["live_overhead"] >= bound and passes <= max_retries:
            again = measure(name)
            passes += 1
            bare = min(entry["bare_run_seconds"], again["bare_run_seconds"])
            live = min(entry["live_run_seconds"], again["live_run_seconds"])
            added = max(0.0, live - bare)
            entry = dict(
                again,
                bare_run_seconds=bare,
                live_run_seconds=live,
                added_seconds=added,
                live_overhead=added / bare,
                measurement_passes=passes,
            )
        results[name] = entry
    return results


def _measure_live(name: str) -> Dict[str, Any]:
    workload = workload_by_name(name)
    tables = cached_tables(workload, SCALE, seed=SEED)
    timing = _timed_session_runs(workload, tables)
    bare, live = timing["bare"], timing["live"]
    added = max(0.0, live - bare)
    return {
        "n": N,
        "runs_per_sample": RUNS_PER_SAMPLE,
        "repeats": LIVE_REPEATS,
        "bare_run_seconds": bare,
        "live_run_seconds": live,
        "added_seconds": added,
        "live_overhead": added / bare,
        "profiler_hz": LIVE_PROFILER_HZ,
    }


def _measure(name: str) -> Dict[str, Any]:
    workload = workload_by_name(name)
    tables = cached_tables(workload, SCALE, seed=SEED)
    query = workload.query
    aux = query.build_aux(tables)
    records = tables[query.protected_table][:N]
    rng = make_rng(SEED, f"bench-obs-{name}")
    extra_records = list(
        query.sample_domain_batch(rng, tables, len(records))
    )

    # Correctness first: tracing must not perturb outputs.
    bare_out = _neighbours_bare(query, records, extra_records, aux)
    null_out = _neighbours_traced(
        NULL_TRACER, query, records, extra_records, aux
    )
    assert np.array_equal(bare_out, null_out)

    bare = _time(_neighbours_bare, query, records, extra_records, aux)
    disabled = _time(
        _neighbours_traced, NULL_TRACER, query, records, extra_records, aux
    )

    enabled_tracer = Tracer()
    enabled = _time(
        _neighbours_traced, enabled_tracer, query, records, extra_records, aux
    )

    session_seconds = _session_run_seconds(workload, tables)
    added = max(0.0, disabled - bare)

    return {
        "n": len(records),
        "bare_seconds": bare,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "session_run_seconds": session_seconds,
        "added_seconds": added,
        "disabled_overhead": added / session_seconds,
        "kernel_ratio": disabled / bare - 1.0,
        "enabled_kernel_ratio": enabled / bare - 1.0,
        "spans_per_run": SPANS_PER_RUN,
    }


def test_bench_disabled_tracer_overhead():
    results: Dict[str, Dict[str, Any]] = {}
    rows: List[list] = []
    for name in WORKLOADS:
        entry = _measure(name)
        results[name] = entry
        rows.append(
            [
                name,
                entry["n"],
                f"{entry['bare_seconds'] * 1000:.3f}",
                f"{entry['disabled_seconds'] * 1000:.3f}",
                f"{entry['session_run_seconds'] * 1000:.3f}",
                f"{entry['disabled_overhead'] * 100:+.3f}%",
                f"{entry['enabled_kernel_ratio'] * 100:+.2f}%",
            ]
        )

    payload = {
        "benchmark": "disabled_tracer_overhead",
        "sample_size": N,
        "scale": SCALE,
        "repeats": REPEATS,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "workloads": results,
    }
    output = os.path.abspath(OUTPUT)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report = format_table(
        ["query", "n", "bare (ms)", "disabled (ms)", "session (ms)",
         "disabled ovh", "enabled kernel"],
        rows,
    )
    report += f"\n\n(JSON written to {output})"
    emit_report("bench_obs_overhead", report)

    for name, entry in results.items():
        assert entry["disabled_overhead"] < MAX_DISABLED_OVERHEAD, (
            name, entry,
        )


def test_bench_live_monitoring_overhead():
    """The enabled live stack must cost < 5 % of a bare session run."""
    results = _measure_with_retry(_measure_live, WORKLOADS,
                                  MAX_LIVE_OVERHEAD)
    rows: List[list] = []
    for name, entry in results.items():
        rows.append(
            [
                name,
                entry["n"],
                f"{entry['bare_run_seconds'] * 1000:.3f}",
                f"{entry['live_run_seconds'] * 1000:.3f}",
                f"{entry['live_overhead'] * 100:+.3f}%",
            ]
        )

    # Merge into the same artifact the disabled-overhead test writes.
    output = os.path.abspath(OUTPUT)
    payload: Dict[str, Any] = {}
    if os.path.exists(output):
        with open(output, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmark", "disabled_tracer_overhead")
    payload["max_live_overhead"] = MAX_LIVE_OVERHEAD
    payload["live"] = results
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report = format_table(
        ["query", "n", "bare run (ms)", "live run (ms)", "live ovh"],
        rows,
    )
    report += f"\n\n(JSON written to {output})"
    emit_report("bench_obs_overhead_live", report)

    for name, entry in results.items():
        assert entry["live_overhead"] < MAX_LIVE_OVERHEAD, (name, entry)


def test_bench_timeseries_sampling_overhead():
    """Continuous sampling must cost < 5 % of a bare session run.

    Gates the tentpole promise that the time-series layer is pure
    observation: read-only snapshot sampling plus ring-buffer appends,
    off the release path's critical sections.
    """
    results = _measure_with_retry(_measure_sampling, WORKLOADS,
                                  MAX_SAMPLING_OVERHEAD)
    rows: List[list] = []
    for name, entry in results.items():
        rows.append(
            [
                name,
                entry["n"],
                f"{entry['bare_run_seconds'] * 1000:.3f}",
                f"{entry['live_run_seconds'] * 1000:.3f}",
                f"{entry['live_overhead'] * 100:+.3f}%",
            ]
        )

    # Merge into the same artifact as the other overhead tests.
    output = os.path.abspath(OUTPUT)
    payload: Dict[str, Any] = {}
    if os.path.exists(output):
        with open(output, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmark", "disabled_tracer_overhead")
    payload["max_sampling_overhead"] = MAX_SAMPLING_OVERHEAD
    payload["sampling"] = results
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report = format_table(
        ["query", "n", "bare run (ms)", "sampled run (ms)",
         "sampling ovh"],
        rows,
    )
    report += f"\n\n(JSON written to {output})"
    emit_report("bench_obs_overhead_sampling", report)

    for name, entry in results.items():
        assert entry["live_overhead"] < MAX_SAMPLING_OVERHEAD, (name, entry)

