"""Sampling profiler: where CPU time goes, attributed to live spans.

The span tracer answers "how long did phase:reduce take"; the profiler
answers "what was the interpreter *doing* inside it".  A background
daemon thread samples ``sys._current_frames()`` at a configurable rate
and, for every observed thread, prepends the chain of live spans that
thread is inside (via the tracer's per-thread registry,
:func:`repro.obs.tracing.active_span_chain`) — so a stack reads
``upa.run;phase:reduce;fold_batch …`` and a flamegraph groups by
pipeline phase with zero changes to the instrumented code.

Exports:

* :meth:`SamplingProfiler.collapsed_stacks` — the collapsed-stack
  format ``frame;frame;frame count`` consumed by ``flamegraph.pl`` and
  https://www.speedscope.app (File → Import, or paste).
* :meth:`SamplingProfiler.span_table` — per-span self-sample counts
  with estimated seconds, rendered by ``repro report`` as the span
  self-time table.

The profiler is an *observer*: it never touches pipeline state, and
sampling cost is bounded by ``hz`` times the number of live threads.
Starting one inside a mapper/reducer is flagged by upalint (UPA013).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.tracing import active_span_chain

#: frames deeper than this are truncated (pathological recursion guard).
MAX_STACK_DEPTH = 128

#: collapsed-format separator; frames containing it are rewritten.
_SEP = ";"


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    label = f"{code.co_name} ({filename}:{frame.f_lineno})"
    return label.replace(_SEP, ",")


class SamplingProfiler:
    """Background statistical profiler with span attribution.

    Example:
        >>> profiler = SamplingProfiler(hz=200)
        >>> profiler.start()
        >>> sum(i * i for i in range(100_000))  # doctest: +SKIP
        >>> profiler.stop()
        >>> profiler.write_collapsed("profile.txt")  # doctest: +SKIP

    Use as a context manager to scope it over one run.  ``hz`` is the
    target sampling rate; actual attribution error is the usual
    statistical-profiler one sample, so seconds in :meth:`span_table`
    are estimates (``samples / hz``), not measurements.
    """

    def __init__(self, hz: float = 100.0,
                 include_idle: bool = False):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = float(hz)
        self.interval = 1.0 / float(hz)
        #: sample threads with no live span (servers, pool idlers)?
        #: Default False: span-less stacks are mostly executor
        #: wait-loops and swamp the signal.
        self.include_idle = include_idle
        self._stacks: Counter = Counter()
        self._span_samples: Counter = Counter()
        self._samples_total = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the sampler thread (idempotent while running)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the sampler thread (idempotent)."""
        self._stop_event.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- sampling -----------------------------------------------------
    def _loop(self) -> None:
        own = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            self._sample_once(own)

    def _sample_once(self, own: int) -> None:
        # One pass over every live frame; the frames dict is a snapshot,
        # but frames themselves keep executing — sampling noise inherent
        # to statistical profilers, bounded by one frame per sample.
        try:
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - interpreter teardown
            return
        names = {t.ident: t.name for t in threading.enumerate()}
        batch: List[Tuple[Tuple[str, ...], str]] = []
        for ident, frame in frames.items():
            if ident == own:
                continue
            spans = active_span_chain(ident)
            if not spans and not self.include_idle:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()
            root = spans if spans else [
                f"thread:{names.get(ident, ident)}".replace(_SEP, ",")
            ]
            batch.append((tuple(root + stack), root[-1]))
        if not batch:
            return
        with self._lock:
            for stack_key, span in batch:
                self._stacks[stack_key] += 1
                self._span_samples[span] += 1
                self._samples_total += 1

    # -- queries / exports --------------------------------------------
    @property
    def sample_count(self) -> int:
        with self._lock:
            return self._samples_total

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        with self._lock:
            return dict(self._stacks)

    def span_table(self) -> List[Tuple[str, int, float]]:
        """``(span, samples, estimated_seconds)`` rows, hottest first.

        A sample is attributed to the *innermost* live span of the
        sampled thread, so these are self-time style numbers at span
        granularity (code under ``phase:reduce`` but not inside a
        nested span counts toward ``phase:reduce``).
        """
        with self._lock:
            items = sorted(
                self._span_samples.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return [
            (span, samples, samples * self.interval)
            for span, samples in items
        ]

    def collapsed_stacks(self) -> str:
        """flamegraph.pl / speedscope collapsed format, one stack per
        line: ``root;frame;...;leaf count``."""
        with self._lock:
            items = sorted(self._stacks.items())
        return "".join(
            _SEP.join(stack) + f" {count}\n" for stack, count in items
        )

    def write_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed_stacks())

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._span_samples.clear()
            self._samples_total = 0


def parse_collapsed(text: str) -> List[Tuple[Tuple[str, ...], int]]:
    """Parse collapsed-stack text back into ``(frames, count)`` pairs.

    Tolerant the way :meth:`PrivacyLedger.read_jsonl` is: blank and
    malformed lines are skipped, so a file truncated mid-write still
    parses to its valid prefix.
    """
    out: List[Tuple[Tuple[str, ...], int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text:
            continue
        try:
            count = int(count_text)
        except ValueError:
            continue
        out.append((tuple(stack_text.split(_SEP)), count))
    return out


def span_table_from_collapsed(
    text: str, interval: float = 0.0
) -> List[Tuple[str, int, float]]:
    """Rebuild the per-span table from a collapsed file.

    Span frames are distinguishable from code frames because code
    frames carry a ``name (file:line)`` suffix — the leading run of
    suffix-less frames is the span chain, and the sample is attributed
    to its innermost element (mirroring :meth:`SamplingProfiler
    .span_table`).  ``interval`` (seconds per sample) scales counts to
    estimated seconds; 0 leaves seconds at 0 when the rate is unknown.
    """
    samples: Counter = Counter()
    for frames, count in parse_collapsed(text):
        span = None
        for frame in frames:
            if frame.endswith(")") and " (" in frame:
                break
            span = frame
        if span is not None:
            samples[span] += count
    return [
        (span, count, count * interval)
        for span, count in sorted(
            samples.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
