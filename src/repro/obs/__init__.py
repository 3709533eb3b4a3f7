"""repro.obs: observability for the UPA pipeline.

Post-hoc pillars (see ``docs/observability.md``):

* :mod:`repro.obs.tracing` — contextvar-propagated span tracer with
  Chrome trace-event export; zero-cost when disabled.
* :mod:`repro.obs.ledger` — append-only privacy audit ledger recording
  the fitted normal parameters, inferred output range, sensitivity,
  RANGE ENFORCER outcomes and epsilon charged per release.
* :mod:`repro.obs.report` — the :class:`ObservedRun` report object and
  the per-phase/percentile breakdowns behind ``repro report``.

Live-monitoring pillars (same doc, "Live monitoring"):

* :mod:`repro.obs.exporters` — Prometheus text exposition and
  OTLP-style JSON over metrics snapshots and span trees.
* :mod:`repro.obs.server` — the :class:`ObservabilityServer` HTTP
  endpoints (``/metrics``, ``/healthz``, ``/ledger``, ``/traces``,
  ``/budget``, ``/profile``) behind ``repro … --serve``.
* :mod:`repro.obs.alerts` — declarative :class:`AlertRule`s (budget
  burn rate, sensitivity drift, clamp rate) driven by ledger appends
  and metrics scrapes.
* :mod:`repro.obs.profiler` — the span-attributing
  :class:`SamplingProfiler` with collapsed-stack export.
* :mod:`repro.obs.timeseries` — the bounded :class:`TimeSeriesStore`
  ring buffers behind continuous monitoring: sampled metric history,
  counter→rate derivation, exhaustion forecasts and the JSONL
  time-series artifact (``--timeseries``).
* :mod:`repro.obs.watch` — pure terminal rendering for ``repro
  watch`` (unicode sparklines over ``/timeseries`` payloads).

A surface loads on first use: the package imports none of its
submodules, and ``repro.obs.X`` / ``from repro.obs import X`` import
the one submodule that defines ``X`` (PEP 562).  A release needs
``tracing``, ``ledger`` and ``report`` only, so the HTTP server, the
exporters, the profiler and the alert engine cost nothing until a
caller asks for them (DESIGN.md §7 has the layering rule).

Observer code must never influence query outputs: calling into this
package from a mapper/reducer is flagged by upalint (UPA011), and
starting a server/profiler there by UPA013.
"""

import importlib

#: submodule -> the public names it defines; ``__all__`` is their union.
_EXPORTS = {
    "alerts": (
        "Alert",
        "AlertEngine",
        "AlertRule",
        "BudgetBurnRule",
        "ClampRateRule",
        "GaugeThresholdRule",
        "RateRule",
        "SensitivityDriftRule",
        "TrendRule",
        "default_rules",
    ),
    "exporters": (
        "render_dashboard",
        "render_otlp_metrics",
        "render_otlp_spans",
        "render_prometheus",
        "sanitize_metric_name",
        "sparkline_svg",
    ),
    "ledger": ("LedgerEntry", "PrivacyLedger", "make_entry"),
    "profiler": (
        "SamplingProfiler",
        "parse_collapsed",
        "span_table_from_collapsed",
    ),
    "report": ("ObservedRun", "SpanStat", "run_header"),
    "server": ("ObservabilityServer",),
    "timeseries": (
        "KEY_SERIES",
        "TIMESERIES_FORMAT",
        "TimeSeriesStore",
        "forecast_exhaustion",
        "least_squares_slope",
        "order_series",
    ),
    "tracing": (
        "NULL_TRACER",
        "NullTracer",
        "Span",
        "Tracer",
        "active_span_chain",
        "current_span",
        "get_tracer",
        "set_tracer",
        "trace",
        "use_tracer",
    ),
    "watch": ("render_watch", "spark"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | _OWNER.keys())
