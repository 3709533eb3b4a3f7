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

* :mod:`repro.obs.exporters` — Prometheus text exposition over
  metrics snapshots.
* :mod:`repro.obs.server` — the :class:`ObservabilityServer` HTTP
  endpoints (``/metrics``, ``/healthz``, ``/ledger``, ``/traces``,
  ``/budget``) behind ``repro … --serve``.
* :mod:`repro.obs.alerts` — declarative :class:`AlertRule`s (budget
  burn rate, sensitivity drift, clamp rate) driven by ledger appends
  and metrics scrapes.

Each surface has a named consumer (the table in
``docs/observability.md``).

A surface loads on first use: the package imports none of its
submodules, and ``repro.obs.X`` / ``from repro.obs import X`` import
the one submodule that defines ``X`` (PEP 562).  A release needs
``tracing``, ``ledger`` and ``report`` only, so the HTTP server, the
exporter and the alert engine cost nothing until a caller asks for
them (DESIGN.md §7 has the layering rule).

Observer code must never influence query outputs: the pipeline
traces the phases around a query's mapper and reducer, which never
call into this package or start a server themselves.
"""

import importlib

#: submodule -> the public names it defines; ``__all__`` is their union.
_EXPORTS = {
    "alerts": (
        "Alert",
        "AlertEngine",
        "AlertRule",
        "BudgetBurnRule",
        "ClampFractionRule",
        "GaugeThresholdRule",
        "SensitivityDriftRule",
        "default_rules",
    ),
    "exporters": ("render_prometheus", "sanitize_metric_name"),
    "ledger": ("LedgerEntry", "PrivacyLedger", "make_entry"),
    "report": ("ObservedRun", "SpanStat", "run_header"),
    "server": ("ObservabilityServer",),
    "tracing": (
        "NULL_TRACER",
        "NullTracer",
        "Span",
        "Tracer",
        "current_span",
        "get_tracer",
        "set_tracer",
        "trace",
        "use_tracer",
    ),
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
