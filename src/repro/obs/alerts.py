"""Declarative runtime alerting over the privacy ledger and metrics.

Production DP systems live or die by three live questions the post-hoc
report cannot answer in time:

* **How fast is the budget burning?**  :class:`BudgetBurnRule`
  forecasts, at the current average epsilon charge per release, how
  many more releases fit before the
  :class:`~repro.dp.budget.PrivacyAccountant` is exhausted.
* **Has inferred sensitivity drifted?**  :class:`SensitivityDriftRule`
  keeps a rolling mean/stddev of ``local_sensitivity`` per query
  fingerprint and fires on a z-score excursion — the repeated-query
  attack surface RANGE ENFORCER (Algorithm 2) defends, made observable:
  a later submission of the same query whose inferred sensitivity jumps
  is exactly the signal an operator wants paged on.
* **Is RANGE ENFORCER clamping too often?**  :class:`ClampRateRule`
  fires when the fraction of clamped releases exceeds a threshold —
  persistent clamping means the fitted range is systematically tighter
  than the data, i.e. utility is silently degrading.

Rules are evaluated by an :class:`AlertEngine` on every ledger append
(attach it with :meth:`AlertEngine.attach`) and on every metrics tick
(:meth:`AlertEngine.observe_metrics` — the introspection server calls
this per scrape).  Fired alerts land in the ledger header, the
``ObservedRun`` report, the ``/healthz`` endpoint (degraded status) and
the CLI exit summary.

A third hook, ``on_window``, evaluates *windowed* conditions against a
:class:`~repro.obs.timeseries.TimeSeriesStore` — rates and trends over
sliding time windows rather than point-in-time snapshots.  The engine
runs it on every store tick once :meth:`AlertEngine.attach_timeseries`
is wired (``UPASession.attach_timeseries`` does this), which is how a
continuous ``append``/``retire`` session gets its budget exhaustion
*forecast in seconds* (windowed :class:`BudgetBurnRule`), clamp-rate
spike detection (:class:`RateRule`) and sensitivity growth trends
(:class:`TrendRule`).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.dp.budget import PrivacyAccountant
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.ledger import LedgerEntry, PrivacyLedger
from repro.obs.timeseries import (
    TimeSeriesStore,
    forecast_exhaustion,
    least_squares_slope,
)


@dataclass(frozen=True)
class Alert:
    """One rule firing.

    ``sequence`` is the ledger sequence that triggered it (None for
    metrics-tick firings); ``context`` carries the numbers behind the
    decision so the message never needs re-deriving.
    """

    rule: str
    severity: str  # "warning" | "critical"
    message: str
    sequence: Optional[int] = None
    context: Dict[str, Any] = field(default_factory=dict)
    unix_time: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "sequence": self.sequence,
            "context": dict(self.context),
            "unix_time": self.unix_time,
        }


class AlertRule:
    """Base rule: override one (or more) evaluation hooks.

    ``on_entry`` sees the appended entry plus the full prior history
    (the new entry is ``history[-1]``); ``on_metrics`` sees a metrics
    snapshot; ``on_window`` sees the time-series store as of ``now``
    (points after ``now`` are excluded, so artifact replay evaluates
    each historical tick faithfully).  All return an :class:`Alert` to
    fire or None.
    """

    name = "rule"

    def on_entry(
        self,
        entry: LedgerEntry,
        history: Sequence[LedgerEntry],
        accountant: Optional[PrivacyAccountant],
    ) -> Optional[Alert]:
        return None

    def on_metrics(self, snapshot: MetricsSnapshot) -> Optional[Alert]:
        return None

    def on_window(
        self, store: TimeSeriesStore, now: float
    ) -> Optional[Alert]:
        return None


def _charged(history: Sequence[LedgerEntry]) -> List[LedgerEntry]:
    """Entries that actually spent budget (replays and refused
    submissions charge nothing)."""
    return [e for e in history if not (e.cache_hit or e.refused)]


@dataclass
class BudgetBurnRule(AlertRule):
    """Forecast budget exhaustion from the burn rate, two ways.

    Per ledger entry (``on_entry``): average the epsilon charged over
    the last ``window`` charged entries, read the remaining balance
    (live from the accountant when available, else from the entry's
    recorded ``accountant_remaining_epsilon``), and fire when
    ``remaining / average`` drops below ``min_releases_remaining``.

    Per time-series tick (``on_window``): derive the epsilon charge
    rate (epsilon/second) over the trailing ``rate_window_seconds`` of
    the ``release.epsilon_charged`` counter and fire when
    ``remaining / rate`` forecasts exhaustion within
    ``min_seconds_remaining`` — a *wall-clock* forecast, which is what
    a continuous append/retire deployment actually pages on.

    Silent when no balance is known — there is nothing to forecast
    against without an accountant.
    """

    min_releases_remaining: float = 5.0
    window: int = 10
    #: windowed path: fire when exhaustion is forecast within this many
    #: seconds at the trailing charge rate.
    min_seconds_remaining: float = 300.0
    rate_window_seconds: float = 300.0
    name: str = "budget-burn"

    def on_window(self, store, now):
        forecast = forecast_exhaustion(
            store, window=self.rate_window_seconds, now=now
        )
        if forecast is None:
            return None
        seconds = forecast["seconds_to_exhaustion"]
        if seconds >= self.min_seconds_remaining:
            return None
        releases = forecast.get("releases_to_exhaustion")
        suffix = (
            f", ~{releases:.0f} release(s)" if releases is not None else ""
        )
        return Alert(
            rule=self.name,
            severity=(
                "critical"
                if seconds < self.min_seconds_remaining / 10.0
                else "warning"
            ),
            message=(
                f"budget burn-rate: exhaustion forecast in ~{seconds:.0f}s"
                f"{suffix} at the trailing charge rate "
                f"({forecast['epsilon_per_second']:g} eps/s over "
                f"{self.rate_window_seconds:g}s, remaining epsilon "
                f"{forecast['remaining_epsilon']:g})"
            ),
            context={
                "metric": MetricsRegistry.RELEASE_EPSILON,
                "forecast_seconds_to_exhaustion": seconds,
                **forecast,
            },
            unix_time=now,
        )

    def on_entry(self, entry, history, accountant):
        if entry.cache_hit or entry.refused:
            return None
        remaining: Optional[float] = None
        total: Optional[float] = None
        if accountant is not None:
            balance = accountant.describe()
            remaining = balance["remaining_epsilon"]
            total = balance["total_epsilon"]
        elif entry.accountant_remaining_epsilon is not None:
            remaining = float(entry.accountant_remaining_epsilon)
        if remaining is None:
            return None
        recent = _charged(history)[-self.window:]
        charges = [e.epsilon_charged for e in recent if e.epsilon_charged > 0]
        if not charges:
            return None
        burn = sum(charges) / len(charges)
        forecast = remaining / burn if burn > 0 else math.inf
        if forecast >= self.min_releases_remaining:
            return None
        return Alert(
            rule=self.name,
            severity="critical" if forecast < 1.0 else "warning",
            message=(
                f"budget burn-rate: ~{forecast:.1f} release(s) left at the "
                f"current spend (remaining epsilon {remaining:g}, mean "
                f"charge {burn:g} over last {len(charges)} release(s))"
            ),
            sequence=entry.sequence,
            context={
                "remaining_epsilon": remaining,
                "total_epsilon": total,
                "mean_epsilon_charged": burn,
                "forecast_releases_remaining": forecast,
            },
        )


@dataclass
class SensitivityDriftRule(AlertRule):
    """Rolling z-score of ``local_sensitivity`` per query fingerprint.

    For each charged release, the baseline is the mean/stddev of the
    *prior* ``window`` charged entries with the same query name.  With
    at least ``min_history`` baseline points, fire when
    ``|value - mean| / stddev`` exceeds ``z_threshold``; a zero-stddev
    baseline fires on any deviation at all (the strongest drift signal
    a constant history can give).
    """

    z_threshold: float = 3.0
    min_history: int = 5
    window: int = 50
    name: str = "sensitivity-drift"

    def on_entry(self, entry, history, accountant):
        if entry.cache_hit or entry.refused:
            return None
        prior = [
            e for e in _charged(history[:-1]) if e.query == entry.query
        ][-self.window:]
        if len(prior) < self.min_history:
            return None
        values = [e.local_sensitivity for e in prior]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        stddev = math.sqrt(variance)
        deviation = entry.local_sensitivity - mean
        if stddev == 0.0:
            if deviation == 0.0:
                return None
            z = math.inf
        else:
            z = deviation / stddev
            if abs(z) <= self.z_threshold:
                return None
        return Alert(
            rule=self.name,
            severity="warning",
            message=(
                f"sensitivity drift on {entry.query!r}: local_sensitivity "
                f"{entry.local_sensitivity:g} is {z:+.1f} sigma from the "
                f"rolling baseline (mean {mean:g}, stddev {stddev:g}, "
                f"n={len(values)}) — inspect before releasing further "
                "answers for this query"
            ),
            sequence=entry.sequence,
            context={
                "query": entry.query,
                "local_sensitivity": entry.local_sensitivity,
                "baseline_mean": mean,
                "baseline_stddev": stddev,
                "baseline_count": len(values),
                "z_score": z if math.isfinite(z) else None,
            },
        )


@dataclass
class ClampRateRule(AlertRule):
    """RANGE ENFORCER clamp-rate threshold over charged releases."""

    max_rate: float = 0.5
    min_entries: int = 5
    name: str = "clamp-rate"

    def on_entry(self, entry, history, accountant):
        charged = _charged(history)
        if len(charged) < self.min_entries:
            return None
        clamped = sum(1 for e in charged if e.clamped)
        rate = clamped / len(charged)
        if rate <= self.max_rate:
            return None
        return Alert(
            rule=self.name,
            severity="warning",
            message=(
                f"RANGE ENFORCER clamped {clamped}/{len(charged)} releases "
                f"({rate:.0%} > {self.max_rate:.0%}): the fitted range is "
                "systematically tighter than the data"
            ),
            sequence=entry.sequence,
            context={
                "clamped": clamped,
                "entries": len(charged),
                "clamp_rate": rate,
            },
        )


@dataclass
class RateRule(AlertRule):
    """Windowed rule: counter rate over a sliding window exceeds a cap.

    The default instance in :func:`default_rules` watches RANGE
    ENFORCER's clamp counter — a clamp *spike* (many clamps per second)
    is a different signal from :class:`ClampRateRule`'s clamp
    *fraction* and catches a burst of tight-range releases inside an
    otherwise healthy history.
    """

    metric: str = ""
    max_rate_per_second: float = math.inf
    window_seconds: float = 60.0
    min_points: int = 2
    severity: str = "warning"
    name: str = "rate"

    def on_window(self, store, now):
        pts = store.points(
            self.metric, since=now - self.window_seconds, until=now
        )
        if len(pts) < self.min_points:
            return None
        rate = store.rate(self.metric, window=self.window_seconds, now=now)
        if rate is None or rate <= self.max_rate_per_second:
            return None
        return Alert(
            rule=self.name,
            severity=self.severity,
            message=(
                f"rate spike on {self.metric}: {rate:g}/s over the "
                f"trailing {self.window_seconds:g}s exceeds "
                f"{self.max_rate_per_second:g}/s"
            ),
            context={
                "metric": self.metric,
                "rate_per_second": rate,
                "max_rate_per_second": self.max_rate_per_second,
                "window_seconds": self.window_seconds,
            },
            unix_time=now,
        )


@dataclass
class TrendRule(AlertRule):
    """Windowed rule: least-squares slope over a window exceeds a cap.

    With ``relative=True`` the slope is divided by the window's mean
    value, making the threshold a *fractional growth rate per second* —
    the scale-free form suits sensitivity drift, where absolute
    magnitudes are query-dependent.
    """

    metric: str = ""
    max_slope_per_second: float = math.inf
    window_seconds: float = 120.0
    min_points: int = 3
    relative: bool = False
    severity: str = "warning"
    name: str = "trend"

    def on_window(self, store, now):
        pts = store.points(
            self.metric, since=now - self.window_seconds, until=now
        )
        if len(pts) < self.min_points:
            return None
        slope = least_squares_slope(pts)
        if slope is None:
            return None
        if self.relative:
            mean = sum(v for _, v in pts) / len(pts)
            if mean == 0.0:
                return None
            slope = slope / abs(mean)
        if slope <= self.max_slope_per_second:
            return None
        unit = "fraction/s" if self.relative else "units/s"
        return Alert(
            rule=self.name,
            severity=self.severity,
            message=(
                f"upward trend on {self.metric}: slope {slope:g} {unit} "
                f"over the trailing {self.window_seconds:g}s exceeds "
                f"{self.max_slope_per_second:g} {unit}"
            ),
            context={
                "metric": self.metric,
                "slope_per_second": slope,
                "max_slope_per_second": self.max_slope_per_second,
                "window_seconds": self.window_seconds,
                "relative": self.relative,
            },
            unix_time=now,
        )


@dataclass
class GaugeThresholdRule(AlertRule):
    """Metrics-tick rule: fire while gauge ``metric`` exceeds ``max_value``."""

    metric: str = ""
    max_value: float = math.inf
    name: str = "gauge-threshold"

    def on_metrics(self, snapshot):
        if self.metric not in snapshot.gauges:
            return None
        value = snapshot.gauges[self.metric]
        if value <= self.max_value:
            return None
        return Alert(
            rule=self.name,
            severity="warning",
            message=(
                f"gauge {self.metric} = {value:g} exceeds the configured "
                f"threshold {self.max_value:g}"
            ),
            context={"metric": self.metric, "value": value,
                     "max_value": self.max_value},
        )


def default_rules() -> List[AlertRule]:
    """The rules every monitored session should run.

    The ledger-driven trio (budget burn, sensitivity drift, clamp
    rate) and a windowed clamp-rate spike detector that only evaluates
    once a time-series store is attached.  Sensitivity-drift trends are
    left to explicit :class:`TrendRule` instances because a useful
    relative threshold is workload-specific.
    """
    return [
        BudgetBurnRule(),
        SensitivityDriftRule(),
        ClampRateRule(),
        RateRule(
            metric=MetricsRegistry.RELEASE_CLAMPS,
            max_rate_per_second=1.0,
            window_seconds=60.0,
            min_points=3,
            name="clamp-spike",
        ),
    ]


class AlertEngine:
    """Evaluates rules on ledger appends and metrics ticks; keeps firings.

    Thread-safe: ledger appends arrive from the session thread while
    the introspection server ticks metrics from scrape threads.
    Metrics-tick rules are deduplicated per (rule, metric context) so a
    scrape loop does not refile the same condition every second;
    ledger-entry firings are naturally unique per sequence.
    """

    def __init__(
        self,
        rules: Optional[Sequence[AlertRule]] = None,
        accountant: Optional[PrivacyAccountant] = None,
    ):
        self.rules = list(rules) if rules is not None else default_rules()
        self.accountant = accountant
        self._lock = threading.Lock()
        self._alerts: List[Alert] = []
        self._history: List[LedgerEntry] = []
        self._metric_fired: set = set()
        self._window_fired: set = set()
        self._ledger: Optional[PrivacyLedger] = None
        self._timeseries: Optional[TimeSeriesStore] = None

    # -- wiring -------------------------------------------------------
    def attach(self, ledger: PrivacyLedger) -> "AlertEngine":
        """Subscribe to ``ledger`` appends; firings land in its header."""
        self._ledger = ledger
        ledger.add_listener(self.observe_entry)
        return self

    def attach_timeseries(self, store: TimeSeriesStore) -> "AlertEngine":
        """Evaluate windowed rules on every tick of ``store``."""
        self._timeseries = store
        store.add_listener(lambda s, t: self.observe_window(s, now=t))
        return self

    # -- evaluation ---------------------------------------------------
    def observe_entry(self, entry: LedgerEntry) -> List[Alert]:
        """Evaluate every rule against one appended ledger entry."""
        with self._lock:
            self._history.append(entry)
            history = list(self._history)
        fired: List[Alert] = []
        for rule in self.rules:
            alert = rule.on_entry(entry, history, self.accountant)
            if alert is not None:
                fired.append(alert)
        if fired:
            self._record(fired)
        return fired

    def observe_metrics(self, snapshot: MetricsSnapshot) -> List[Alert]:
        """Evaluate metrics-tick rules against one snapshot."""
        fired: List[Alert] = []
        for rule in self.rules:
            alert = rule.on_metrics(snapshot)
            if alert is None:
                continue
            key = (alert.rule, alert.message)
            with self._lock:
                if key in self._metric_fired:
                    continue
                self._metric_fired.add(key)
            fired.append(alert)
        if fired:
            self._record(fired)
        return fired

    def observe_window(
        self, store: TimeSeriesStore, now: Optional[float] = None
    ) -> List[Alert]:
        """Evaluate windowed rules against the store as of ``now``.

        Deduplicated per (rule, metric) — the *condition*, not
        the message, because windowed messages embed numbers that churn
        every tick.  A rule that keeps being true therefore fires once,
        same philosophy as the metrics-tick dedupe.
        """
        t = time.time() if now is None else float(now)
        fired: List[Alert] = []
        for rule in self.rules:
            alert = rule.on_window(store, t)
            if alert is None:
                continue
            key = (alert.rule, alert.context.get("metric", ""))
            with self._lock:
                if key in self._window_fired:
                    continue
                self._window_fired.add(key)
            fired.append(alert)
        if fired:
            self._record(fired)
        return fired

    def _record(self, fired: Sequence[Alert]) -> None:
        with self._lock:
            self._alerts.extend(fired)
        if self._ledger is not None:
            self._ledger.update_header(alerts=self.to_dicts())

    # -- queries ------------------------------------------------------
    def alerts(self) -> List[Alert]:
        with self._lock:
            return list(self._alerts)

    @property
    def degraded(self) -> bool:
        """True once any rule has fired (the ``/healthz`` signal)."""
        with self._lock:
            return bool(self._alerts)

    def firing_rules(self) -> List[str]:
        """Distinct rule names that have fired, in first-firing order."""
        seen: List[str] = []
        for alert in self.alerts():
            if alert.rule not in seen:
                seen.append(alert.rule)
        return seen

    def to_dicts(self) -> List[dict]:
        return [a.to_dict() for a in self.alerts()]

    def summary(self) -> str:
        """CLI exit-summary rendering ('' when nothing fired)."""
        alerts = self.alerts()
        if not alerts:
            return ""
        lines = [f"{len(alerts)} alert(s) fired:"]
        for alert in alerts:
            where = f" [entry {alert.sequence}]" if (
                alert.sequence is not None) else ""
            lines.append(
                f"  {alert.severity.upper()} {alert.rule}{where}: "
                f"{alert.message}"
            )
        return "\n".join(lines)

    def replay(
        self, source: Union[PrivacyLedger, TimeSeriesStore]
    ) -> List[Alert]:
        """Evaluate an existing artifact against the rules.

        A :class:`PrivacyLedger` replays entry by entry; a
        :class:`TimeSeriesStore` (e.g. rebuilt from a ``--timeseries``
        JSONL artifact via :meth:`TimeSeriesStore.read_jsonl`) replays
        tick by tick, evaluating each window *as of* that tick so the
        replay fires exactly what a live session would have.  Returns
        everything fired during the replay.
        """
        if isinstance(source, TimeSeriesStore):
            return self.replay_timeseries(source)
        fired: List[Alert] = []
        for entry in source.entries():
            fired.extend(self.observe_entry(entry))
        return fired

    def replay_timeseries(self, store: TimeSeriesStore) -> List[Alert]:
        fired: List[Alert] = []
        for t in store.tick_times():
            fired.extend(self.observe_window(store, now=t))
        return fired
