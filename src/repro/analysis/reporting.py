"""Plain-text report tables for the benchmark harness output."""

from __future__ import annotations

from typing import Any, Sequence


def format_value(value: Any) -> str:
    """Benchmark-friendly scalar formatting (scientific for extremes)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned fixed-width table (headers + separator + rows)."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [
        max([len(h)] + [len(row[i]) for row in cells])
        for i, h in enumerate(headers)
    ]
    def fmt_row(values: Sequence[str]) -> str:
        return " | ".join(v.ljust(w) for v, w in zip(values, widths))

    lines = [fmt_row(list(headers)), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)
