"""Privacy audit ledger: what the pipeline *did* with the budget.

FLEX-style systems are auditable because their sensitivity derivation
is inspectable; UPA's sensitivity is *sampled and fitted*, which makes
inspectability more important, not less.  The ledger records, per
``UPASession.run``/``run_sql``, the fitted normal parameters (mu,
sigma) per output coordinate, the inferred output range ``O_f``, its
width (the mechanism's noise is calibrated to it, or to the query's
noise floor if that is larger), the Laplace scale the noise was drawn
at, what RANGE ENFORCER
did (clamping, repeated-query matches, record removals), the epsilon
charged against the accountant's balance, replays of an earlier
release (``cache_hit``, nothing charged), and the submissions RANGE
ENFORCER refused (``refused``, nothing charged).

The ledger is **append-only**: entries can be recorded and read, never
edited or removed (``clear`` does not exist by design).  It serializes
to JSONL — a self-describing header line followed by one JSON object
per entry — and is queryable in-process for tests and ``repro
report``.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple


def _as_floats(values: Any) -> Tuple[float, ...]:
    """Normalize array-likes to a JSON-friendly tuple of floats."""
    if values is None:
        return ()
    try:
        return tuple(float(v) for v in values)
    except TypeError:  # scalar
        return (float(values),)


@dataclass(frozen=True)
class LedgerEntry:
    """One audited release (or replay) of a query answer.

    All fields are safe to persist: they describe the *mechanism's
    calibration*, not the raw data (the range and fit are themselves
    derived from sampled neighbours and are what the DP analysis
    reasons about — contrast with ``UPAResult.raw_output``, which must
    never leave the curator).
    """

    #: position in the ledger (0-based, append order).
    sequence: int
    query: str
    epsilon_charged: float
    delta: float
    mechanism: str
    sample_size: int
    #: MLE normal fit per output coordinate (Algorithm 1).
    fitted_mean: Tuple[float, ...]
    fitted_std: Tuple[float, ...]
    #: the inferred output range O_f per coordinate.
    range_lower: Tuple[float, ...]
    range_upper: Tuple[float, ...]
    #: the inferred range width; the noise is calibrated to
    #: max(this, core.session.noise_floor(query)).
    local_sensitivity: float
    #: the Definition II.1 estimate (Fig. 2(a) comparison).
    estimated_local_sensitivity: float
    #: RANGE ENFORCER (Algorithm 2) outcomes.
    clamped: bool
    matched_prior: bool
    records_removed: int
    #: the Laplace scale b the released noise was drawn at,
    #: max(local_sensitivity, noise floor) / epsilon; a replay carries
    #: its release's.  None: a refusal (nothing drawn), or a line
    #: written before the field existed.
    noise_scale: Optional[float] = None
    #: accountant balance after this charge (None: no accountant).
    accountant_spent_epsilon: Optional[float] = None
    accountant_remaining_epsilon: Optional[float] = None
    #: the submission was identical to an earlier release, whose result
    #: was returned unchanged (no new spend).
    cache_hit: bool = False
    #: RANGE ENFORCER ran out of sampled records separating this
    #: submission from a prior one: nothing was released or charged.
    refused: bool = False
    elapsed_seconds: float = 0.0
    unix_time: float = field(default_factory=time.time)

    @property
    def clamp_count(self) -> int:
        return 1 if self.clamped else 0

    def to_dict(self) -> dict:
        data = asdict(self)
        for key in ("fitted_mean", "fitted_std", "range_lower", "range_upper"):
            data[key] = list(data[key])
        return data


class PrivacyLedger:
    """Thread-safe, append-only record of every budgeted release.

    Example:
        >>> ledger = PrivacyLedger()
        >>> from repro.core import UPASession  # doctest: +SKIP
        >>> session = UPASession(ledger=ledger)  # doctest: +SKIP
    """

    FORMAT = "upa-ledger/1"

    def __init__(self, header: Optional[Dict[str, Any]] = None):
        self._lock = threading.Lock()
        self._entries: List[LedgerEntry] = []
        self.header: Dict[str, Any] = dict(header or {})

    def ensure_header(self, header: Dict[str, Any]) -> None:
        """Fill the header once; later calls are no-ops (the first
        session to touch an anonymous ledger describes it)."""
        with self._lock:
            if not self.header:
                self.header = dict(header)

    def append(self, entry: LedgerEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def next_sequence(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[LedgerEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self.entries())

    # -- queries (tests, reports) ------------------------------------
    def query(
        self,
        query_name: Optional[str] = None,
        clamped: Optional[bool] = None,
        matched_prior: Optional[bool] = None,
        cache_hit: Optional[bool] = None,
    ) -> List[LedgerEntry]:
        """Filter entries by any combination of audit dimensions."""
        out = []
        for entry in self.entries():
            if query_name is not None and entry.query != query_name:
                continue
            if clamped is not None and entry.clamped != clamped:
                continue
            if matched_prior is not None and entry.matched_prior != matched_prior:
                continue
            if cache_hit is not None and entry.cache_hit != cache_hit:
                continue
            out.append(entry)
        return out

    def totals(self) -> Dict[str, float]:
        """Ledger-wide aggregates for the report summary."""
        entries = self.entries()
        return {
            "entries": len(entries),
            "epsilon_charged": sum(e.epsilon_charged for e in entries),
            "clamp_count": sum(e.clamp_count for e in entries),
            "matched_prior": sum(1 for e in entries if e.matched_prior),
            "records_removed": sum(e.records_removed for e in entries),
            "cache_hits": sum(1 for e in entries if e.cache_hit),
            "refused": sum(1 for e in entries if e.refused),
        }

    # -- serialization -----------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            self.dump_jsonl(handle)

    def dump_jsonl(self, handle: TextIO) -> None:
        """Header line, then one compact JSON object per entry."""
        header = {"format": self.FORMAT, **self.header}
        handle.write(json.dumps(header, sort_keys=True, default=str) + "\n")
        for entry in self.entries():
            handle.write(
                json.dumps(entry.to_dict(), sort_keys=True, default=str)
                + "\n"
            )

    @classmethod
    def read_jsonl(cls, path: str) -> "PrivacyLedger":
        """Load a ledger written by :meth:`write_jsonl`.

        Crash-safe by design: blank lines are skipped, and a truncated
        or otherwise corrupt line — the state of the *final* line of a
        file still being written, or of a run killed mid-write — produces a
        :class:`RuntimeWarning` and is dropped instead of raising, so a
        reader (``repro report``) always gets the longest valid prefix.
        """
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            return cls()

        def _bad(index: int, what: str) -> None:
            warnings.warn(
                f"{path}:{index + 1}: skipping {what} ledger line "
                "(truncated by a concurrent writer?)",
                RuntimeWarning,
                stacklevel=3,
            )

        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            _bad(0, "corrupt header")
            header = {}
        if not isinstance(header, dict):
            _bad(0, "non-object header")
            header = {}
        header.pop("format", None)
        ledger = cls(header=header)
        for index, line in enumerate(lines[1:], start=1):
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                _bad(index, "corrupt")
                continue
            try:
                for key in ("fitted_mean", "fitted_std",
                            "range_lower", "range_upper"):
                    data[key] = tuple(float(v) for v in data.get(key, ()))
                ledger.append(LedgerEntry(**data))
            except (TypeError, ValueError, KeyError, AttributeError):
                _bad(index, "malformed")
        return ledger


def make_entry(
    *,
    sequence: int,
    query: str,
    epsilon_charged: float,
    delta: float,
    mechanism: str,
    sample_size: int,
    mean: Any,
    std: Any,
    lower: Any,
    upper: Any,
    local_sensitivity: float,
    estimated_local_sensitivity: float,
    clamped: bool,
    matched_prior: bool,
    records_removed: int,
    noise_scale: Optional[float] = None,
    accountant_spent_epsilon: Optional[float] = None,
    accountant_remaining_epsilon: Optional[float] = None,
    cache_hit: bool = False,
    refused: bool = False,
    elapsed_seconds: float = 0.0,
) -> LedgerEntry:
    """Build a :class:`LedgerEntry`, normalizing numpy arrays to tuples."""
    return LedgerEntry(
        sequence=sequence,
        query=query,
        epsilon_charged=float(epsilon_charged),
        delta=float(delta),
        mechanism=mechanism,
        sample_size=int(sample_size),
        fitted_mean=_as_floats(mean),
        fitted_std=_as_floats(std),
        range_lower=_as_floats(lower),
        range_upper=_as_floats(upper),
        local_sensitivity=float(local_sensitivity),
        estimated_local_sensitivity=float(estimated_local_sensitivity),
        clamped=bool(clamped),
        matched_prior=bool(matched_prior),
        records_removed=int(records_removed),
        noise_scale=None if noise_scale is None else float(noise_scale),
        accountant_spent_epsilon=accountant_spent_epsilon,
        accountant_remaining_epsilon=accountant_remaining_epsilon,
        cache_hit=bool(cache_hit),
        refused=bool(refused),
        elapsed_seconds=float(elapsed_seconds),
    )
