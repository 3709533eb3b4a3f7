"""repro.obs: observability for the UPA pipeline.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.tracing` — contextvar-propagated span tracer with
  Chrome trace-event export; zero-cost when disabled.
* :mod:`repro.obs.ledger` — append-only privacy audit ledger recording
  the fitted normal parameters, inferred output range, sensitivity,
  RANGE ENFORCER outcomes and epsilon charged per release.
* :mod:`repro.obs.report` — the :class:`ObservedRun` report object and
  the per-phase, per-query breakdowns behind ``repro report``.

Each surface has a named consumer (the table in
``docs/observability.md``).  A release runs all three, so the package
imports them eagerly.

Observer code must never influence query outputs: the pipeline
traces the phases around a query's mapper and reducer, which never
call into this package themselves.
"""

from repro.obs.ledger import LedgerEntry, PrivacyLedger, make_entry
from repro.obs.report import ObservedRun, SpanStat, run_header
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    trace,
    use_tracer,
)

__all__ = [
    "LedgerEntry",
    "NULL_TRACER",
    "NullTracer",
    "ObservedRun",
    "PrivacyLedger",
    "Span",
    "SpanStat",
    "Tracer",
    "get_tracer",
    "make_entry",
    "run_header",
    "set_tracer",
    "trace",
    "use_tracer",
]
