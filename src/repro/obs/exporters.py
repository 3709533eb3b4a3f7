"""Metric exporter: Prometheus text exposition.

The post-hoc observability layer (traces, ledger, ``repro report``)
answers "what did that run do"; a production DP service also needs
"what is this session doing *right now*" — which means speaking the
format a Prometheus scrape reads: :func:`render_prometheus` renders the
text exposition format v0.0.4 over a
:class:`~repro.engine.metrics.MetricsSnapshot` — counters (``_total``
suffix), gauges, and histogram summaries as ``summary`` metrics
(quantile gauges plus ``_count``/``_sum``), each with
``# HELP``/``# TYPE`` annotations and sanitized names.

Everything here is stdlib-only and read-only over thread-safe
snapshots, so an exporter can run concurrently with the pipeline.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.engine.metrics import MetricsSnapshot

#: quantiles exported for every histogram (label value, summary attr).
SUMMARY_QUANTILES: Tuple[Tuple[str, str], ...] = (
    ("0.5", "p50"),
    ("0.9", "p90"),
    ("0.95", "p95"),
    ("0.99", "p99"),
)

#: a fully valid Prometheus metric name.
_VALID_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str, namespace: str = "") -> str:
    """Coerce ``name`` into the Prometheus metric-name grammar.

    Invalid characters (``.`` in ``sql.plan_cache.hits``, ``-``,
    spaces, unicode) become ``_``; runs collapse to one; a leading
    digit gets a ``_`` prefix; an optional ``namespace`` is prepended
    with an underscore.  An empty result degrades to ``_``.
    """
    cleaned = _INVALID_NAME_CHARS.sub("_", name)
    cleaned = re.sub(r"__+", "_", cleaned).strip("_") or "_"
    if namespace:
        cleaned = f"{namespace}_{cleaned}"
    if not _VALID_NAME.match(cleaned):
        cleaned = f"_{cleaned}"
    return cleaned


def sanitize_label_name(name: str) -> str:
    """Label names are like metric names but without ``:``."""
    cleaned = _INVALID_LABEL_CHARS.sub("_", name) or "_"
    if cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def format_value(value: float) -> str:
    """Shortest round-trippable rendering; Inf/NaN per the exposition
    grammar."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_block(
    name: str,
    mtype: str,
    help_text: str,
    samples: Iterable[Tuple[str, Optional[Mapping[str, str]], float]],
) -> List[str]:
    """One ``# HELP``/``# TYPE`` header plus its sample lines.

    ``samples`` yields ``(suffix, labels, value)`` — suffix is appended
    to the metric name (``_count``/``_sum`` for summaries, "" for plain
    samples).  ``name`` must already be sanitized.
    """
    lines = [
        f"# HELP {name} {_escape_help(help_text)}",
        f"# TYPE {name} {mtype}",
    ]
    for suffix, labels, value in samples:
        rendered = ""
        if labels:
            parts = ",".join(
                f'{sanitize_label_name(k)}="{_escape_label_value(str(v))}"'
                for k, v in labels.items()
            )
            rendered = "{" + parts + "}"
        lines.append(f"{name}{suffix}{rendered} {format_value(value)}")
    return lines


def render_prometheus(
    snapshot: MetricsSnapshot,
    namespace: str = "upa",
    extra_blocks: Optional[Iterable[List[str]]] = None,
) -> str:
    """Prometheus text exposition (v0.0.4) of one metrics snapshot.

    Counters get the conventional ``_total`` suffix; histograms export
    as ``summary`` metrics with the :data:`SUMMARY_QUANTILES` quantile
    gauges plus ``_count`` and ``_sum``; gauges export as-is.
    ``extra_blocks`` (pre-rendered via :func:`prometheus_block`) lets
    the server append budget/alert gauges without touching the engine
    registry.  Ends with the grammar's required trailing newline.
    """
    lines: List[str] = []
    for base in sorted(snapshot.counters):
        name = sanitize_metric_name(base, namespace)
        if not name.endswith("_total"):
            name += "_total"
        lines.extend(prometheus_block(
            name, "counter", f"Engine counter {base}.",
            [("", None, snapshot.counters[base])],
        ))
    for base in sorted(snapshot.gauges):
        lines.extend(prometheus_block(
            sanitize_metric_name(base, namespace), "gauge",
            f"Engine gauge {base}.",
            [("", None, snapshot.gauges[base])],
        ))
    for base in sorted(snapshot.histograms):
        name = sanitize_metric_name(base, namespace)
        summary = snapshot.summary(base)
        samples: List[Tuple[str, Optional[Mapping[str, str]], float]] = [
            ("", {"quantile": q}, getattr(summary, attr))
            for q, attr in SUMMARY_QUANTILES
        ]
        samples.append(("_sum", None, summary.mean * summary.count))
        samples.append(("_count", None, float(summary.count)))
        lines.extend(prometheus_block(
            name, "summary", f"Engine histogram {base}.", samples
        ))
        lines.extend(prometheus_block(
            f"{name}_stddev", "gauge",
            f"Population standard deviation of histogram {base}.",
            [("", None, summary.stddev)],
        ))
    for block in extra_blocks or ():
        lines.extend(block)
    return "\n".join(lines) + "\n"
