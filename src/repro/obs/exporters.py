"""Metric and span exporters: Prometheus text exposition + OTLP-style JSON.

The post-hoc observability layer (traces, ledger, ``repro report``)
answers "what did that run do"; a production DP service also needs
"what is this session doing *right now*" — which means speaking the
formats monitoring stacks already scrape:

* :func:`render_prometheus` — Prometheus text exposition format
  v0.0.4 over a :class:`~repro.engine.metrics.MetricsSnapshot`:
  counters (``_total`` suffix), gauges, and histogram summaries as
  ``summary`` metrics (quantile gauges plus ``_count``/``_sum``), each
  with ``# HELP``/``# TYPE`` annotations and sanitized names.
* :func:`render_otlp_metrics` / :func:`render_otlp_spans` — OTLP-style
  JSON renderings of the same snapshot and of a tracer's span tree
  (the shape of ``ExportMetricsServiceRequest`` /
  ``ExportTraceServiceRequest``; "style" because timestamps are
  tracer-epoch-relative, not unix nanos, and only string/number
  attribute values are emitted).

Everything here is stdlib-only and read-only over thread-safe
snapshots, so an exporter can run concurrently with the pipeline.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable, List, Mapping, Optional, Tuple

from repro.engine.metrics import HistogramSummary, MetricsSnapshot
from repro.obs.tracing import Tracer

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


# ---------------------------------------------------------------------------
# OTLP-style JSON
# ---------------------------------------------------------------------------


def _otlp_attributes(attributes: Mapping[str, Any]) -> List[dict]:
    out = []
    for key, value in attributes.items():
        if isinstance(value, bool):
            typed = {"boolValue": value}
        elif isinstance(value, int):
            typed = {"intValue": str(value)}
        elif isinstance(value, float):
            typed = {"doubleValue": value}
        else:
            typed = {"stringValue": str(value)}
        out.append({"key": str(key), "value": typed})
    return out


def _otlp_envelope(key: str, scope_key: str, payload_key: str,
                   payload: List[dict],
                   resource: Optional[Mapping[str, Any]] = None) -> dict:
    return {
        key: [{
            "resource": {
                "attributes": _otlp_attributes(
                    {"service.name": "repro.upa", **(resource or {})}
                ),
            },
            scope_key: [{
                "scope": {"name": "repro.obs", "version": "1"},
                payload_key: payload,
            }],
        }],
    }


def render_otlp_metrics(
    snapshot: MetricsSnapshot,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict:
    """OTLP-style JSON of one metrics snapshot.

    Counters become monotonic cumulative ``sum`` metrics, gauges become
    ``gauge`` metrics, histograms become ``summary`` metrics carrying
    the same quantiles the Prometheus exposition exports.
    """
    metrics: List[dict] = []
    for base in sorted(snapshot.counters):
        metrics.append({
            "name": base,
            "sum": {
                "isMonotonic": True,
                "aggregationTemporality":
                    "AGGREGATION_TEMPORALITY_CUMULATIVE",
                "dataPoints": [{"asDouble": snapshot.counters[base]}],
            },
        })
    for base in sorted(snapshot.gauges):
        metrics.append({
            "name": base,
            "gauge": {"dataPoints": [{"asDouble": snapshot.gauges[base]}]},
        })
    for base in sorted(snapshot.histograms):
        summary: HistogramSummary = snapshot.summary(base)
        metrics.append({"name": base, "summary": {"dataPoints": [{
            "count": summary.count,
            "sum": summary.mean * summary.count,
            "quantileValues": [
                {"quantile": float(q), "value": getattr(summary, a)}
                for q, a in SUMMARY_QUANTILES
            ],
        }]}})
    return _otlp_envelope(
        "resourceMetrics", "scopeMetrics", "metrics", metrics, resource
    )


def render_otlp_spans(
    tracer: Tracer,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict:
    """OTLP-style JSON of a tracer's finished spans.

    Timestamps are seconds-since-tracer-epoch scaled to nanos (the
    tracer uses a monotonic clock, so they are *relative*, which is
    what makes this OTLP-*style*); ids are rendered as the fixed-width
    hex OTLP uses.
    """
    spans: List[dict] = []
    for span in tracer.spans():
        spans.append({
            "name": span.name,
            "spanId": f"{span.span_id:016x}",
            "parentSpanId":
                f"{span.parent_id:016x}" if span.parent_id else "",
            "startTimeUnixNano": str(int(span.start * 1e9)),
            "endTimeUnixNano": str(int((span.end or span.start) * 1e9)),
            "attributes": _otlp_attributes(
                {"thread.name": span.thread, **span.attributes}
            ),
        })
    return _otlp_envelope(
        "resourceSpans", "scopeSpans", "spans", spans,
        {**tracer.header, **(resource or {})},
    )


# ---------------------------------------------------------------------------
# /dashboard: self-contained HTML with inline-SVG sparklines
# ---------------------------------------------------------------------------

#: chart tokens (light, dark) — the validated reference palette: one
#: series hue (every sparkline is a single series, titled by its card),
#: reserved status steps for alert badges (always paired with a text
#: label, never color alone), and the matching surface/ink pairs.
_DASH_CSS = """\
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --plane: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --plane: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 20px; background: var(--plane);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 17px; margin: 0 0 2px; }
.sub { color: var(--text-secondary); font-size: 12px; margin: 0 0 14px; }
.sub a { color: var(--text-secondary); }
.badges { margin: 0 0 14px; }
.badge {
  display: inline-block; padding: 2px 9px; margin: 0 6px 6px 0;
  border-radius: 999px; font-size: 12px; font-weight: 600;
  border: 1px solid var(--border); background: var(--surface-1);
  color: var(--text-primary);
}
.badge .dot {
  display: inline-block; width: 8px; height: 8px; border-radius: 50%;
  margin-right: 6px; vertical-align: baseline;
}
.badge-good .dot { background: var(--status-good); }
.badge-warning .dot { background: var(--status-warning); }
.badge-critical .dot { background: var(--status-critical); }
.forecast { color: var(--text-secondary); font-size: 13px; margin: 0 0 14px; }
.grid {
  display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fill, minmax(230px, 1fr));
}
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px;
}
.card .name {
  color: var(--text-secondary); font-size: 11px;
  overflow-wrap: anywhere;
}
.card .value {
  font-size: 20px; font-variant-numeric: tabular-nums; margin: 1px 0 4px;
}
.card .rate { color: var(--muted); font-size: 11px; }
.spark { display: block; width: 100%; height: 36px; }
.spark .base { stroke: var(--grid); stroke-width: 1; }
.spark polyline { stroke: var(--series-1); }
.note { color: var(--muted); font-size: 12px; margin-top: 14px; }
"""


def _format_number(value: float) -> str:
    """Compact human rendering for card values ("1234", "0.0417")."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def sparkline_svg(
    points: Sequence[Tuple[float, float]],
    *,
    width: int = 220,
    height: int = 36,
    title: str = "",
) -> str:
    """One series as an inline-SVG sparkline (2px line, no chrome).

    Values normalize into the box with a 3px inset; a flat series draws
    mid-height.  The ``<title>`` child is the native hover tooltip and
    the accessible name — the numbers also appear as text on the card,
    so color never carries the information alone.
    """
    import html as _html

    w, h, inset = float(width), float(height), 3.0
    if not points:
        return ""
    values = [v for _, v in points]
    times = [t for t, _ in points]
    vmin, vmax = min(values), max(values)
    tmin, tmax = min(times), max(times)
    vspan = vmax - vmin
    tspan = tmax - tmin
    coords = []
    for i, (t, v) in enumerate(points):
        if tspan > 0:
            x = inset + (t - tmin) / tspan * (w - 2 * inset)
        else:
            x = inset + (i / max(1, len(points) - 1)) * (w - 2 * inset)
        if vspan > 0:
            y = (h - inset) - (v - vmin) / vspan * (h - 2 * inset)
        else:
            y = h / 2.0
        coords.append(f"{x:.1f},{y:.1f}")
    label = _html.escape(title, quote=True)
    baseline = h - inset
    return (
        f'<svg class="spark" viewBox="0 0 {width} {height}" '
        f'preserveAspectRatio="none" role="img" aria-label="{label}">'
        f"<title>{label}</title>"
        f'<line class="base" x1="0" y1="{baseline:.1f}" '
        f'x2="{width}" y2="{baseline:.1f}" />'
        f'<polyline fill="none" stroke-width="2" stroke-linejoin="round" '
        f'stroke-linecap="round" points="{" ".join(coords)}" />'
        "</svg>"
    )


def render_dashboard(
    store,
    alerts: Optional[Iterable[Mapping[str, Any]]] = None,
    *,
    title: str = "UPA continuous monitoring",
    refresh: Optional[float] = None,
    series: Optional[Iterable[str]] = None,
    since: Optional[float] = None,
    step: Optional[float] = None,
    max_cards: int = 48,
    now: Optional[float] = None,
) -> str:
    """The ``/dashboard`` page: key series first, everything inline.

    Stdlib-only and self-contained (no external scripts, fonts or
    stylesheets): one card per series with the latest value, trailing
    rate and a sparkline; status badges for health and firing alerts
    (color + text label, never color alone); the budget-exhaustion
    forecast when the store carries budget series.  ``refresh`` adds a
    ``<meta http-equiv="refresh">`` so a browser left open stays live.
    When more than ``max_cards`` series exist the remainder is dropped
    from the page (never silently — the footer says how many; the
    ``/timeseries`` endpoint always has the full set).
    """
    import html as _html

    from repro.obs.timeseries import forecast_exhaustion, order_series

    payload = store.to_payload(
        series=list(series) if series else None,
        since=since,
        step=step,
        now=now,
    )
    ordered = order_series(payload["series"])
    dropped = max(0, len(ordered) - max_cards)
    ordered = ordered[:max_cards]

    head = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_html.escape(title)}</title>",
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
    ]
    if refresh:
        head.append(f'<meta http-equiv="refresh" content="{refresh:g}">')
    head.append(f"<style>{_DASH_CSS}</style></head><body>")

    body: List[str] = [f"<h1>{_html.escape(title)}</h1>"]
    body.append(
        '<p class="sub">'
        f'{payload["ticks"]} sample(s), {len(payload["series"])} series '
        f'&middot; sample interval {payload["interval"]:g}s &middot; '
        '<a href="/timeseries">JSON</a> &middot; '
        '<a href="/metrics">metrics</a> &middot; '
        '<a href="/healthz">health</a></p>'
    )

    alert_list = list(alerts or ())
    badges: List[str] = []
    if alert_list:
        for alert in alert_list:
            severity = str(alert.get("severity", "warning"))
            cls = "critical" if severity == "critical" else "warning"
            text = _html.escape(
                f'{severity} · {alert.get("rule", "?")}'
            )
            detail = _html.escape(str(alert.get("message", "")), quote=True)
            badges.append(
                f'<span class="badge badge-{cls}" title="{detail}">'
                f'<span class="dot"></span>{text}</span>'
            )
    else:
        badges.append(
            '<span class="badge badge-good">'
            '<span class="dot"></span>ok · no alerts fired</span>'
        )
    body.append(f'<p class="badges">{"".join(badges)}</p>')

    forecast = forecast_exhaustion(store, now=now)
    if forecast is not None:
        releases = forecast.get("releases_to_exhaustion")
        suffix = (
            f" (~{releases:.0f} release(s))" if releases is not None else ""
        )
        body.append(
            '<p class="forecast">budget: exhaustion forecast in '
            f'~{forecast["seconds_to_exhaustion"]:.0f}s{suffix} at '
            f'{forecast["epsilon_per_second"]:.4g} eps/s &middot; '
            f'remaining epsilon {forecast["remaining_epsilon"]:.4g}</p>'
        )

    body.append('<div class="grid">')
    for name in ordered:
        entry = payload["series"][name]
        pts = entry["points"]
        rate = entry.get("rate_per_second")
        rate_text = (
            f"{_format_number(rate)}/s &middot; " if rate is not None else ""
        )
        spark = sparkline_svg(
            [(p[0], p[1]) for p in pts],
            title=f'{name}: latest {_format_number(entry["latest"])}',
        )
        body.append(
            '<div class="card">'
            f'<div class="name">{_html.escape(name)}</div>'
            f'<div class="value">{_format_number(entry["latest"])}</div>'
            f"{spark}"
            f'<div class="rate">{rate_text}{entry["kind"]} &middot; '
            f"{len(pts)} pt(s)</div>"
            "</div>"
        )
    body.append("</div>")
    if dropped:
        body.append(
            f'<p class="note">{dropped} more series not shown — '
            'query <a href="/timeseries">/timeseries</a> for the full '
            "set.</p>"
        )
    body.append("</body></html>")
    return "\n".join(head + body) + "\n"
