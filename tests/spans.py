"""A run still in memory, read the way the tests read it: its tracer's
spans by name or phase, and its report as its artifacts would give it."""

from repro.obs import ObservedRun


def find(tracer, name):
    """The finished spans called ``name``, in completion order."""
    return [span for span in tracer.spans() if span.name == name]


def phase_spans(tracer):
    """The pipeline-phase spans, in start order."""
    phases = [span for span in tracer.spans() if span.name.startswith("phase:")]
    return sorted(phases, key=lambda span: span.start)


def from_live(tracer=None, ledger=None):
    """The report ``repro report`` would print from the run's ``--trace``
    and ``--ledger``: the tracer's Chrome trace is read as its file."""
    trace = tracer.to_chrome_trace() if tracer is not None else None
    return ObservedRun._read(trace, ledger)
