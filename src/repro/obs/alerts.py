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
* **Is RANGE ENFORCER clamping too often?**  :class:`ClampFractionRule`
  fires when the fraction of clamped releases exceeds a threshold —
  persistent clamping means the fitted range is systematically tighter
  than the data, i.e. utility is silently degrading.

Rules are evaluated by an :class:`AlertEngine` on every ledger append
(attach it with :meth:`AlertEngine.attach`) and on every metrics tick
(:meth:`AlertEngine.observe_metrics` — the introspection server calls
this per scrape).  Fired alerts land in the ledger header, the
``ObservedRun`` report, the ``/healthz`` endpoint (degraded status) and
the CLI exit summary.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.dp.budget import PrivacyAccountant
from repro.engine.metrics import MetricsSnapshot
from repro.obs.ledger import LedgerEntry, PrivacyLedger


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
    """Base rule: override one (or both) evaluation hooks.

    ``on_entry`` sees the appended entry plus the full prior history
    (the new entry is ``history[-1]``); ``on_metrics`` sees a metrics
    snapshot.  Both return an :class:`Alert` to fire or None.
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


def _charged(history: Sequence[LedgerEntry]) -> List[LedgerEntry]:
    """Entries that actually spent budget (replays and refused
    submissions charge nothing)."""
    return [e for e in history if not (e.cache_hit or e.refused)]


@dataclass
class BudgetBurnRule(AlertRule):
    """Forecast budget exhaustion from the burn rate.

    Average the epsilon charged over the last ``window`` charged
    entries, read the remaining balance (live from the accountant when
    available, else from the entry's recorded
    ``accountant_remaining_epsilon``), and fire when
    ``remaining / average`` drops below ``min_releases_remaining``.

    Silent when no balance is known — there is nothing to forecast
    against without an accountant.
    """

    min_releases_remaining: float = 5.0
    window: int = 10
    name: str = "budget-burn"

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
class ClampFractionRule(AlertRule):
    """RANGE ENFORCER clamp-rate threshold: the fraction of charged
    releases it clamped (the rule fires as ``clamp-rate``)."""

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
    """The rules every monitored session runs: the ledger-driven trio
    (budget burn, sensitivity drift, clamp rate)."""
    return [BudgetBurnRule(), SensitivityDriftRule(), ClampFractionRule()]


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
        self._ledger: Optional[PrivacyLedger] = None

    # -- wiring -------------------------------------------------------
    def attach(self, ledger: PrivacyLedger) -> "AlertEngine":
        """Subscribe to ``ledger`` appends; firings land in its header."""
        self._ledger = ledger
        ledger.add_listener(self.observe_entry)
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

    def replay(self, ledger: PrivacyLedger) -> List[Alert]:
        """Evaluate an existing ledger against the rules, entry by
        entry; returns everything fired during the replay."""
        fired: List[Alert] = []
        for entry in ledger.entries():
            fired.extend(self.observe_entry(entry))
        return fired
