"""Span tracer: where the time goes, end to end.

The paper's efficiency claims are about *phases* — partition & sample,
parallel map, union-preserving reduce, sensitivity inference, noise —
so the tracer's unit is a :class:`Span`: a named interval with a parent
link, wall time, and typed attributes.  Spans nest through a
``contextvars.ContextVar``, so code deep inside the engine (an
``engine.job`` span) parents correctly under the session phase that
triggered it.

One export format: **Chrome trace-event JSON**
(:meth:`Tracer.to_chrome_trace`), which ``repro report`` reads and
``chrome://tracing`` or https://ui.perfetto.dev shows as a timeline of
the pipeline phases.

Tracing is **zero-cost when disabled**: the module-level default is
:data:`NULL_TRACER`, whose ``span()`` returns one shared no-op context
manager — no allocation, no clock reads, no locking.  Hot paths gate
attribute construction on ``tracer.enabled``; every untraced row of the
end-to-end benchmark (``benchmarks/e2e``) pays that residual cost.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: innermost live span of the *current* logical context (task, thread).
_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One named, timed interval in the span tree.

    Use as a context manager (normally via :meth:`Tracer.span` or
    :func:`trace`); attributes can be attached at creation or with
    :meth:`set_attribute` while the span is live.  Times are seconds
    relative to the owning tracer's epoch (monotonic clock).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "attributes",
        "thread", "_tracer", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int],
                 attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.thread = threading.current_thread().name
        self.start = 0.0
        self.end: Optional[float] = None
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still live)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        self.start = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._now()
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._record(self)
        return False

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} id={self.span_id} "
            f"parent={self.parent_id} {self.duration * 1000:.2f}ms>"
        )


class _NullSpan:
    """Shared no-op span: the entire cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe collector of finished spans.

    Example:
        >>> tracer = Tracer()
        >>> with tracer.span("outer"):
        ...     with tracer.span("inner", detail=1):
        ...         pass
        >>> [s.name for s in tracer.spans()]
        ['inner', 'outer']
        >>> tracer.spans()[0].parent_id == tracer.spans()[1].span_id
        True
    """

    enabled = True

    def __init__(self, header: Optional[Dict[str, Any]] = None):
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        #: self-describing metadata embedded in every export.
        self.header: Dict[str, Any] = dict(header or {})

    # -- internals used by Span -------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- public API --------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """Create a child span of the current context's span."""
        parent = _current_span.get()
        return Span(
            self, name, next(self._ids),
            parent.span_id if parent is not None else None,
            attributes,
        )

    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- export ------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event format (the ``chrome://tracing`` JSON).

        Complete ("ph": "X") events with microsecond timestamps; span
        attributes land in ``args`` so they show in the inspector pane.
        The tracer header travels in ``metadata`` (ignored by the
        viewer, kept for self-description).
        """
        pid = os.getpid()
        events = []
        for span in self.spans():
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": span.thread,
                "cat": "repro",
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": dict(self.header),
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2,
                      sort_keys=True, default=str)
            handle.write("\n")


class NullTracer(Tracer):
    """Disabled tracer: every span is the shared no-op.

    ``isinstance(t, Tracer)`` still holds, so call sites never branch
    on type — only (optionally) on :attr:`enabled` to skip building
    attribute dicts.
    """

    enabled = False

    def span(self, name: str, **attributes: Any):  # type: ignore[override]
        return NULL_SPAN

    def _record(self, span: Span) -> None:  # pragma: no cover - unused
        pass


#: the module-wide ambient default (see :func:`get_tracer`).
NULL_TRACER = NullTracer()
_ambient: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The ambient tracer (NULL_TRACER unless :func:`set_tracer` ran)."""
    return _ambient


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install the ambient tracer (None resets to disabled); returns
    the previous one so callers can restore it."""
    global _ambient
    previous = _ambient
    _ambient = tracer if tracer is not None else NULL_TRACER
    return previous


class use_tracer:
    """Scoped ambient-tracer installation (tests, CLI commands).

    Example:
        >>> t = Tracer()
        >>> with use_tracer(t):
        ...     with trace("scoped"):
        ...         pass
        >>> [span.name for span in t.spans()]
        ['scoped']
    """

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self._tracer)
        return get_tracer()

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tracer(self._previous)


class _TraceHelper:
    """``trace("x")``: context manager *and* decorator on the ambient
    tracer, resolved at enter/call time so late ``set_tracer`` works."""

    __slots__ = ("_name", "_attributes", "_span")

    def __init__(self, name: str, attributes: Dict[str, Any]):
        self._name = name
        self._attributes = attributes
        self._span: Any = None

    def __enter__(self):
        tracer = _ambient
        if not tracer.enabled:
            self._span = NULL_SPAN
            return NULL_SPAN
        self._span = tracer.span(self._name, **self._attributes)
        return self._span.__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        return self._span.__exit__(exc_type, exc, tb)

    def __call__(self, func: Callable) -> Callable:
        name = self._name or func.__qualname__
        attributes = self._attributes

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer = _ambient
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(name, **attributes):
                return func(*args, **kwargs)

        return wrapper


def trace(name: str = "", **attributes: Any) -> _TraceHelper:
    """Trace a block (``with trace("x"):``) or a function (``@trace()``)
    against the ambient tracer; free when tracing is disabled."""
    return _TraceHelper(name, attributes)

