"""ObservedRun: one report object tying a run's trace and ledger together.

Built two ways, through one reader:

* **from artifacts** — ``repro report --trace t.json --ledger l.jsonl``
  reloads the Chrome-trace JSON and the ledger JSONL written by an
  earlier ``repro run``;
* **live** — a test or a script hands over the session's
  :class:`~repro.obs.tracing.Tracer` and
  :class:`~repro.obs.ledger.PrivacyLedger`; the tracer's Chrome trace
  is read exactly as its file would be.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.obs.ledger import LedgerEntry, PrivacyLedger
from repro.obs.tracing import Tracer

#: canonical pipeline-phase order (paper Figure 1) — the phases every
#: cold run emits exactly once.  ``phase:enforce`` (RANGE ENFORCER) runs
#: nested inside ``phase:noise``, so its time is part of that row too.
PHASE_ORDER = (
    "phase:partition_sample",
    "phase:map",
    "phase:reduce",
    "phase:inference",
    "phase:noise",
    "phase:enforce",
)

#: the child of ``phase:partition_sample`` that draws S-bar; its
#: ``records`` / ``batched`` attributes get their own report line.
DOMAIN_SAMPLE_SPAN = "sampling.domain_sample"

#: phase 1's span; its ``registered`` attribute (released from a table
#: the session had registered) is counted on that same report line.
PARTITION_SAMPLE_SPAN = "phase:partition_sample"

#: RANGE ENFORCER's span; its ``registry`` / ``sweeps`` /
#: ``records_removed`` / ``refused`` attributes get their own report
#: line.
ENFORCE_SPAN = "phase:enforce"

#: the scheduler's span per engine job; its ``partitions`` /
#: ``task_attempts`` attributes make the "engine jobs" line.
ENGINE_JOB_SPAN = "engine.job"

#: title of ``repro report``'s per-query table (CI greps for it).
QUERY_TABLE_TITLE = "per-query releases"

#: PHASE_ORDER plus optional phases that only some runs emit
#: (``phase:incremental_delta`` appears on append/retire releases);
#: used to sort phase tables without changing the cold-run contract.
FULL_PHASE_ORDER = (
    PHASE_ORDER[0], "phase:incremental_delta", *PHASE_ORDER[1:],
)


def run_header(**extra: Any) -> Dict[str, Any]:
    """Self-describing header for traces and ledgers.

    Always embeds the package version and python version; callers add
    the run configuration (epsilon, sample size n, seed, workload) so
    an artifact can be interpreted without the command line that
    produced it.
    """
    header: Dict[str, Any] = {
        "repro_version": __version__,
        "python_version": platform.python_version(),
    }
    header.update(extra)
    return header


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method but works on plain
    sequences without an array round-trip.  A single sample is every
    percentile of itself; tied values interpolate to the tie.

    Raises:
        ValueError: on an empty sequence or ``q`` outside [0, 100].
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot take a percentile of zero samples")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] + (data[high] - data[low]) * fraction


@dataclass(frozen=True)
class SpanStat:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    max_seconds: float

    @classmethod
    def from_durations(cls, name: str,
                       durations: Sequence[float]) -> "SpanStat":
        data = [float(d) for d in durations]
        return cls(
            name=name,
            count=len(data),
            total_seconds=sum(data),
            mean_seconds=sum(data) / len(data) if data else 0.0,
            p50_seconds=percentile(data, 50.0) if data else 0.0,
            p95_seconds=percentile(data, 95.0) if data else 0.0,
            max_seconds=max(data) if data else 0.0,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "max_seconds": self.max_seconds,
        }


def _aggregate(named_durations: Sequence[Tuple[str, float]]) -> List[SpanStat]:
    groups: Dict[str, List[float]] = {}
    first_seen: Dict[str, int] = {}
    for index, (name, duration) in enumerate(named_durations):
        groups.setdefault(name, []).append(duration)
        first_seen.setdefault(name, index)
    return [
        SpanStat.from_durations(name, groups[name])
        for name in sorted(groups, key=first_seen.__getitem__)
    ]


@dataclass
class ObservedRun:
    """Everything one observed pipeline execution produced."""

    header: Dict[str, Any] = field(default_factory=dict)
    #: (span name, duration seconds) pairs in start order.
    span_durations: List[Tuple[str, float]] = field(default_factory=list)
    ledger_entries: List[LedgerEntry] = field(default_factory=list)
    ledger_totals: Dict[str, float] = field(default_factory=dict)
    #: attributes of every ``sampling.domain_sample`` span: how many
    #: S-bar records each release drew, and whether as one column batch.
    domain_sampling: List[Dict[str, Any]] = field(default_factory=list)
    #: attributes of every ``phase:enforce`` span: the registry length
    #: each release (or refusal) was compared against, the sweeps that
    #: took and the records it removed.
    enforcement: List[Dict[str, Any]] = field(default_factory=list)
    #: attributes of every ``phase:partition_sample`` span.
    partition_sampling: List[Dict[str, Any]] = field(default_factory=list)
    #: attributes of every ``engine.job`` span: the tasks each job ran
    #: and the attempts they took.
    engine_jobs: List[Dict[str, Any]] = field(default_factory=list)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_live(
        cls,
        tracer: Optional[Tracer] = None,
        ledger: Optional[PrivacyLedger] = None,
    ) -> "ObservedRun":
        """The report of a run still in memory, read as its artifacts
        would be."""
        trace = tracer.to_chrome_trace() if tracer is not None else None
        return cls._read(trace, ledger)

    @classmethod
    def from_artifacts(
        cls,
        trace_path: Optional[str] = None,
        ledger_path: Optional[str] = None,
    ) -> "ObservedRun":
        trace = None
        if trace_path is not None:
            with open(trace_path, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
        ledger = (
            PrivacyLedger.read_jsonl(ledger_path)
            if ledger_path is not None else None
        )
        return cls._read(trace, ledger)

    @classmethod
    def _read(
        cls, trace: Optional[dict], ledger: Optional[PrivacyLedger],
    ) -> "ObservedRun":
        """Build the report from a Chrome trace document and a ledger."""
        run = cls()
        if trace is not None:
            run.header.update(trace.get("metadata") or {})
            events = sorted(
                (e for e in trace.get("traceEvents", ())
                 if e.get("ph") == "X"),
                key=lambda e: e.get("ts", 0.0),
            )
            run.span_durations = [
                (e["name"], float(e.get("dur", 0.0)) / 1e6) for e in events
            ]

            def attributes(name: str) -> List[Dict[str, Any]]:
                return [e.get("args") or {} for e in events
                        if e["name"] == name]

            run.domain_sampling = attributes(DOMAIN_SAMPLE_SPAN)
            run.enforcement = attributes(ENFORCE_SPAN)
            run.partition_sampling = attributes(PARTITION_SAMPLE_SPAN)
            run.engine_jobs = attributes(ENGINE_JOB_SPAN)
        if ledger is not None:
            run.header.update(ledger.header)
            run.ledger_entries = ledger.entries()
            run.ledger_totals = ledger.totals()
        return run

    # -- breakdowns ---------------------------------------------------
    def phase_stats(self) -> List[SpanStat]:
        """Per-phase aggregates in canonical pipeline order."""
        phases = [
            (name, d) for name, d in self.span_durations
            if name.startswith("phase:")
        ]
        stats = _aggregate(phases)
        order = {name: i for i, name in enumerate(FULL_PHASE_ORDER)}
        return sorted(stats, key=lambda s: order.get(s.name, len(order)))

    def span_stats(self) -> List[SpanStat]:
        return _aggregate(self.span_durations)

    def domain_sampling_summary(self) -> Dict[str, int]:
        """Releases traced, S-bar records drawn, releases that batched,
        releases sampled from a table the session had registered."""
        drawn = self.domain_sampling
        return {
            "releases": len(drawn),
            "records": sum(int(a.get("records", 0)) for a in drawn),
            "batched": sum(1 for a in drawn if a.get("batched")),
            "registered": sum(
                1 for a in self.partition_sampling if a.get("registered")
            ),
        }

    def enforcement_summary(self) -> Dict[str, int]:
        """Releases traced, deepest registry, and sweeps and removals
        summed; refusals are counted, and summed, apart."""
        enforced = self.enforcement
        refused = [a for a in enforced if a.get("refused")]
        released = [a for a in enforced if not a.get("refused")]

        def total(spans: List[Dict[str, Any]], name: str) -> int:
            return sum(int(a.get(name, 0)) for a in spans)

        return {
            "releases": len(released),
            "registry": max(
                (int(a.get("registry", 0)) for a in enforced), default=0
            ),
            "sweeps": total(released, "sweeps"),
            "records_removed": total(released, "records_removed"),
            "refused": len(refused),
            "refused_sweeps": total(refused, "sweeps"),
            "refused_records_removed": total(refused, "records_removed"),
        }

    def engine_summary(self) -> Dict[str, int]:
        """Engine jobs traced, their tasks, the task attempts (tasks
        plus retries) and the retries among those attempts."""
        jobs = self.engine_jobs
        tasks = sum(int(a.get("partitions", 0)) for a in jobs)
        attempts = sum(
            int(a.get("task_attempts", a.get("partitions", 0))) for a in jobs
        )
        return {
            "jobs": len(jobs),
            "tasks": tasks,
            "attempts": attempts,
            "retried": attempts - tasks,
        }

    def query_summary(self) -> List[Dict[str, Any]]:
        """One row per ledger query, in first-seen order.

        ``releases`` counts the charged releases, which are neither a
        replay nor a refusal.  The sensitivity and clamp columns are
        over those alone: a replay repeats its release's numbers and a
        refusal released nothing.  ``sensitivity_max_over_median`` is
        1 when every release inferred the same width and grows when one
        jumped; it is None without a charged release or at a median of
        0, and so is ``clamp_fraction`` without a charged release.
        """
        groups: Dict[str, List[LedgerEntry]] = {}
        for entry in self.ledger_entries:
            groups.setdefault(entry.query, []).append(entry)
        rows = []
        for query, entries in groups.items():
            charged = [e for e in entries if not (e.cache_hit or e.refused)]
            widths = [e.local_sensitivity for e in charged]
            clamped = sum(1 for e in charged if e.clamped)
            median = percentile(widths, 50.0) if widths else None
            peak = max(widths, default=None)
            rows.append({
                "query": query,
                "releases": len(charged),
                "replays": sum(1 for e in entries if e.cache_hit),
                "refused": sum(1 for e in entries if e.refused),
                "sensitivity_median": median,
                "sensitivity_max": peak,
                "sensitivity_max_over_median": (
                    peak / median if median else None
                ),
                "clamped": clamped,
                "clamp_fraction": clamped / len(charged) if charged else None,
            })
        return rows

    # -- rendering ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "header": dict(self.header),
            "phases": [s.to_dict() for s in self.phase_stats()],
            "spans": [s.to_dict() for s in self.span_stats()],
            "domain_sampling": self.domain_sampling_summary(),
            "enforcement": self.enforcement_summary(),
            "engine": self.engine_summary(),
            "ledger": {
                "totals": dict(self.ledger_totals),
                "entries": [e.to_dict() for e in self.ledger_entries],
            },
            "queries": self.query_summary(),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=str)

    def render_text(self) -> str:
        from repro.analysis import format_table

        sections: List[str] = []
        if self.header:
            sections.append("header: " + json.dumps(
                self.header, sort_keys=True, default=str))

        def _stat_rows(stats: Sequence[SpanStat]) -> List[list]:
            return [
                [s.name, s.count, f"{s.total_seconds * 1000:.2f}",
                 f"{s.mean_seconds * 1000:.2f}",
                 f"{s.p50_seconds * 1000:.2f}",
                 f"{s.p95_seconds * 1000:.2f}",
                 f"{s.max_seconds * 1000:.2f}"]
                for s in stats
            ]

        headers = ["span", "count", "total ms", "mean ms", "p50 ms",
                   "p95 ms", "max ms"]
        phases = self.phase_stats()
        if phases:
            sections.append(
                "pipeline phases:\n" + format_table(headers,
                                                    _stat_rows(phases))
            )
        other = [s for s in self.span_stats()
                 if not s.name.startswith("phase:")]
        if other:
            sections.append(
                "other spans:\n" + format_table(headers, _stat_rows(other))
            )
        if self.domain_sampling:
            drawn = self.domain_sampling_summary()
            sections.append(
                f"domain sampling: {drawn['records']} S-bar records over "
                f"{drawn['releases']} releases, {drawn['batched']} of them "
                f"as one column batch, {drawn['registered']} of them from "
                "a registered table"
            )
        if self.enforcement:
            enforced = self.enforcement_summary()
            line = (
                f"range enforcer: {enforced['releases']} releases against "
                f"a registry of up to {enforced['registry']} submissions, "
                f"{enforced['sweeps']} sweeps, "
                f"{enforced['records_removed']} records removed"
            )
            if enforced["refused"]:
                line += (
                    f"; {enforced['refused']} refused after "
                    f"{enforced['refused_sweeps']} sweeps and "
                    f"{enforced['refused_records_removed']} records removed"
                )
            sections.append(line)
        if self.engine_jobs:
            engine = self.engine_summary()
            sections.append(
                f"engine jobs: {engine['jobs']} jobs, {engine['tasks']} "
                f"tasks, {engine['attempts']} attempts "
                f"({engine['retried']} retried)"
            )
        if self.ledger_totals:
            rows = [[k, f"{v:g}"] for k, v in
                    sorted(self.ledger_totals.items())]
            sections.append(
                "privacy ledger totals:\n"
                + format_table(["field", "value"], rows)
            )
        queries = self.query_summary()
        if queries:
            def _num(value: Optional[float]) -> str:
                return "-" if value is None else f"{value:g}"

            rows = [
                [q["query"], q["releases"], q["replays"], q["refused"],
                 _num(q["sensitivity_median"]), _num(q["sensitivity_max"]),
                 _num(q["sensitivity_max_over_median"]), q["clamped"],
                 _num(q["clamp_fraction"])]
                for q in queries
            ]
            sections.append(
                f"{QUERY_TABLE_TITLE}:\n" + format_table(
                    ["query", "releases", "replays", "refused",
                     "sensitivity median", "sensitivity max", "max/median",
                     "clamped", "clamp fraction"], rows)
            )
        if self.ledger_entries:
            rows = [
                [e.sequence, e.query, f"{e.epsilon_charged:g}",
                 f"{e.local_sensitivity:g}",
                 "replay" if e.cache_hit else
                 "refused" if e.refused else
                 ("clamped" if e.clamped else "ok"),
                 e.records_removed]
                for e in self.ledger_entries
            ]
            sections.append(
                "privacy ledger entries:\n" + format_table(
                    ["#", "query", "epsilon", "sensitivity", "outcome",
                     "removed"], rows)
            )
        if not sections:
            return "(no observability artifacts: nothing to report)"
        return "\n\n".join(sections)
