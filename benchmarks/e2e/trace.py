"""Benchmark-owned spans around the layers' public entry points.

Nothing under ``src/`` knows about this file.  For the duration of one
traced release the recorder replaces module attributes
(``repro.core.session.partition_and_sample``), class methods
(``RDD.aggregate``, ``RangeEnforcer.enforce``) and the methods of the
release's query class with wrappers that record a span per call, and
puts the originals back before the next untraced release runs — so the
untraced releases of the same process never pay for a wrapper.

Two kinds of wrapper:

* a **span** wrapper records one span per call (name, start, end,
  parent, release id);
* a **leaf** wrapper is for functions called once per record
  (``record_fingerprint``, ``sample_domain_record`` — up to 20 000
  calls a release).  A span per call would cost more than the call, so
  all calls under one parent share one span that carries ``calls`` and
  ``busy_ns`` (time inside the function, excluding the gaps between
  calls); its start/end are the first call's start and the last
  call's end.

Times are inclusive: a kernel called from ``RangeEnforcer.enforce``
counts in ``query.kernels_ms`` *and* in ``enforcer.enforce_ms``.
``session.self_ms`` is the release minus its *direct* children, i.e.
what no wrapped layer accounts for.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.sampling as sampling
import repro.core.session as session
import repro.core.sqlbridge as sqlbridge
import repro.sql.parser as sql_parser
import repro.sql.session as sql_session
from repro.core.range_enforcer import RangeEnforcer
from repro.dp.mechanisms import LaplaceMechanism
from repro.engine.rdd import RDD
from repro.sql.physical import Executor

ROOT_SPAN = "session.release"

#: a span is a list with these columns (a list, not a dict, because the
#: leaf wrappers update one 20 000 times a release).  ``parent`` is None
#: for a release's root span; ``rows`` is the number of rows
#: ``partition_and_sample`` materialised, 0 on every other span.
SPAN_COLUMNS = (
    "id", "parent", "release", "name", "start_ns", "end_ns", "calls",
    "busy_ns", "rows",
)
ID, PARENT, RELEASE, NAME, START, END, CALLS, BUSY, ROWS = range(9)

_KERNELS = (
    "prefix_suffix_batch", "combine_batch", "finalize_batch", "fold_batch",
)

#: per-layer time metric -> the span names summed into it.
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "sampling.partition_and_sample_ms": ("sampling.partition_and_sample",),
    "sampling.fingerprint_ms": ("sampling.record_fingerprint",),
    "sampling.domain_sample_ms": ("query.sample_domain_record",),
    "query.build_aux_ms": ("query.build_aux",),
    "query.map_batch_ms": ("query.map_batch",),
    "query.kernels_ms": tuple(f"query.{name}" for name in _KERNELS),
    "engine.aggregate_ms": ("engine.aggregate",),
    "inference.infer_ms": (
        "inference.infer_output_range", "inference.infer_local_sensitivity",
    ),
    "enforcer.enforce_ms": ("enforcer.enforce",),
    "dp.randomize_ms": ("dp.randomize",),
    "sql.parse_optimize_ms": (
        "sql.parse_sql", "sql.optimize", "sql.physical_plan",
    ),
    "sqlbridge.compile_ms": ("sqlbridge.compile_sql",),
}

#: per-layer call-count metric -> the leaf span whose calls it reports.
CALL_METRICS: Dict[str, str] = {
    "sampling.fingerprint_calls": "sampling.record_fingerprint",
    "sampling.domain_sample_calls": "query.sample_domain_record",
}


def _rows_materialised(sample: Any) -> int:
    """Rows ``partition_and_sample`` copied into its output lists."""
    return (
        sum(len(part) for part in sample.partitions)
        + sum(len(part) for part in sample.remaining)
        + len(sample.sampled)
    )


class SpanRecorder:
    """In-memory spans of every traced release of one run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []
        #: (owner, attribute, wrapper, owner had its own attribute, original)
        self._static = [
            self._patch(session, "partition_and_sample",
                        "sampling.partition_and_sample",
                        rows=_rows_materialised),
            self._patch(session, "infer_output_range",
                        "inference.infer_output_range"),
            self._patch(session, "infer_local_sensitivity",
                        "inference.infer_local_sensitivity"),
            self._patch(sampling, "record_fingerprint",
                        "sampling.record_fingerprint", leaf=True),
            self._patch(RDD, "aggregate", "engine.aggregate"),
            self._patch(RangeEnforcer, "enforce", "enforcer.enforce"),
            self._patch(LaplaceMechanism, "randomize", "dp.randomize"),
            self._patch(sqlbridge, "compile_sql", "sqlbridge.compile_sql"),
            self._patch(sql_parser, "parse_sql", "sql.parse_sql"),
            self._patch(sql_session, "optimize", "sql.optimize"),
            self._patch(Executor, "execute", "sql.physical_plan"),
        ]
        self._per_class: Dict[type, list] = {}

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str, release: Any) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, release, name, 0, 0, 1, 0, 0]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable,
                      rows: Optional[Callable[[Any], int]]) -> Callable:
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if parent[NAME] == name:
                # Re-entrant call (RDD.mean -> aggregate): the outer
                # span already covers it.
                return fn(*args, **kwargs)
            span = self._open(name, parent[RELEASE])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if rows is not None:
                span[ROWS] = rows(result)
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        #: the parent the calls currently run under, and their span.
        current: List[Any] = [None, None]

        def wrapper(*args: Any) -> Any:
            parent = stack[-1]
            if parent is not current[0]:
                current[0] = parent
                current[1] = [
                    len(spans), parent[ID], parent[RELEASE], name, clock(),
                    0, 0, 0, 0,
                ]
                spans.append(current[1])
            span = current[1]
            start = clock()
            result = fn(*args)
            end = clock()
            span[CALLS] += 1
            span[BUSY] += end - start
            span[END] = end
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, name: str, *,
               leaf: bool = False,
               rows: Optional[Callable[[Any], int]] = None) -> tuple:
        original = getattr(owner, attr)
        wrapper = (
            self._leaf_wrapper(name, original) if leaf
            else self._span_wrapper(name, original, rows)
        )
        return (owner, attr, wrapper, attr in vars(owner), original)

    def _class_patches(self, query_class: type) -> list:
        patches = self._per_class.get(query_class)
        if patches is None:
            patches = [
                self._patch(query_class, "build_aux", "query.build_aux"),
                self._patch(query_class, "map_batch", "query.map_batch"),
                self._patch(query_class, "sample_domain_record",
                            "query.sample_domain_record", leaf=True),
            ]
            patches.extend(
                self._patch(query_class, kernel, f"query.{kernel}")
                for kernel in _KERNELS
            )
            self._per_class[query_class] = patches
        return patches

    # -- one traced release -----------------------------------------------

    @contextmanager
    def release(self, release: Any, query_class: type) -> Iterator[list]:
        """Trace the release run inside the ``with`` block.

        ``release`` identifies it (every span carries it);
        ``query_class`` is the class whose monoid methods the release
        will call.  The root span opens last and closes first, so
        installing and removing the wrappers is not part of it.
        """
        patches = self._static + self._class_patches(query_class)
        for owner, attr, wrapper, _own, _original in patches:
            setattr(owner, attr, wrapper)
        try:
            root = self._open(ROOT_SPAN, release)
            try:
                yield root
            finally:
                self._close(root)
        finally:
            for owner, attr, _wrapper, own, original in patches:
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def dump(self) -> dict:
        """The spans as one JSON-friendly table (column names + rows)."""
        return {"columns": list(SPAN_COLUMNS), "rows": self.spans}


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Mean per traced release of every span-derived per-layer metric."""
    roots = {span[ID] for span in spans if span[PARENT] is None}
    releases = len(roots)
    busy: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    child_ns = 0
    rows = 0
    for span in spans:
        busy[span[NAME]] = busy.get(span[NAME], 0) + span[BUSY]
        calls[span[NAME]] = calls.get(span[NAME], 0) + span[CALLS]
        if span[PARENT] in roots:
            child_ns += span[BUSY]
        rows += span[ROWS]
    metrics = {
        metric: sum(busy.get(name, 0) for name in names) / releases / 1e6
        for metric, names in TIME_METRICS.items()
    }
    for metric, name in CALL_METRICS.items():
        metrics[metric] = calls.get(name, 0) / releases
    metrics["sampling.rows_materialised"] = rows / releases
    metrics["session.self_ms"] = (
        (busy[ROOT_SPAN] - child_ns) / releases / 1e6
    )
    return metrics
