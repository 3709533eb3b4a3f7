"""Privacy budget accounting (sequential composition)."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import DPError, PrivacyBudgetExceeded


def _validate(epsilon: float, delta: float, *, what: str) -> None:
    """Shared epsilon/delta validation (positive/finite, delta in range)."""
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)):
        raise DPError(f"{what} epsilon must be finite, got {epsilon!r}")
    if epsilon <= 0:
        raise DPError(f"{what} epsilon must be positive, got {epsilon}")
    if not (isinstance(delta, (int, float)) and math.isfinite(delta)):
        raise DPError(f"{what} delta must be finite, got {delta!r}")
    if delta < 0:
        raise DPError(f"{what} delta must be non-negative, got {delta}")


@dataclass
class _Charge:
    epsilon: float
    delta: float
    label: str


#: whether the builtin ``sum`` compensates the rounding of float sums
#: (CPython 3.12 and later, Neumaier's algorithm), asked of ``sum``.
_SUM_COMPENSATES = sum([1e16, 1.0, -1e16]) != 0.0


class _RunningSum:
    """``sum()`` of the values added so far, kept one add at a time.

    Bitwise what the builtin returns over the same floats in the same
    order: left to right, with Neumaier's compensation where the
    builtin compensates.  Leading ints add exactly, as the builtin's
    do, until the first float.
    """

    __slots__ = ("_total", "_error")

    def __init__(self) -> None:
        self._total = 0
        self._error = 0.0

    def add(self, value: float) -> None:
        total = self._total
        self._total = result = total + value
        if _SUM_COMPENSATES and type(total) is float and type(value) is float:
            if abs(total) >= abs(value):
                self._error += (total - result) + value
            else:
                self._error += (value - result) + total

    @property
    def value(self) -> float:
        error = self._error
        if error and math.isfinite(error):
            return self._total + error
        return self._total


class PrivacyAccountant:
    """Tracks cumulative (epsilon, delta) spend under sequential composition.

    Example:
        >>> acct = PrivacyAccountant(total_epsilon=1.0)
        >>> acct.charge(0.4, label="q1")
        >>> acct.remaining_epsilon()
        0.6
    """

    def __init__(self, total_epsilon: float, total_delta: float = 0.0):
        _validate(total_epsilon, total_delta, what="total")
        self.total_epsilon = total_epsilon
        self.total_delta = total_delta
        self._lock = threading.Lock()
        self._charges: List[_Charge] = []
        #: the charges' running totals, in charge order.
        self._spent_epsilon = _RunningSum()
        self._spent_delta = _RunningSum()

    def _spent_locked(self) -> Tuple[float, float]:
        """(epsilon, delta) spent so far; caller must hold the lock."""
        return self._spent_epsilon.value, self._spent_delta.value

    def spent(self) -> Tuple[float, float]:
        with self._lock:
            return self._spent_locked()

    def remaining_epsilon(self) -> float:
        return self.total_epsilon - self.spent()[0]

    def remaining_delta(self) -> float:
        return self.total_delta - self.spent()[1]

    def _require_locked(self, epsilon: float, delta: float) -> None:
        """Raise unless the balance covers the spend; caller holds the lock."""
        spent_eps, spent_delta = self._spent_locked()
        if spent_eps + epsilon > self.total_epsilon + 1e-12:
            raise PrivacyBudgetExceeded(epsilon, self.total_epsilon - spent_eps)
        if spent_delta + delta > self.total_delta + 1e-15:
            raise PrivacyBudgetExceeded(delta, self.total_delta - spent_delta)

    def require(self, epsilon: float, delta: float = 0.0) -> None:
        """Raise what :meth:`charge` would raise, recording nothing.

        A release asks this before it does any work and charges only
        once it is certain to answer, so a refused submission is free.
        """
        _validate(epsilon, delta, what="charged")
        with self._lock:
            self._require_locked(epsilon, delta)

    def charge(self, epsilon: float, delta: float = 0.0, label: str = "") -> None:
        """Record a query's spend; raises if the budget would be exceeded."""
        _validate(epsilon, delta, what="charged")
        with self._lock:
            self._require_locked(epsilon, delta)
            self._charges.append(_Charge(epsilon, delta, label))
            self._spent_epsilon.add(epsilon)
            self._spent_delta.add(delta)

    def history(self) -> List[Tuple[float, float, str]]:
        with self._lock:
            return [(c.epsilon, c.delta, c.label) for c in self._charges]

    def __repr__(self) -> str:
        with self._lock:
            spent_eps, spent_delta = self._spent_locked()
            queries = len(self._charges)
        parts = [
            f"spent_epsilon={spent_eps:g}/{self.total_epsilon:g}",
            f"remaining_epsilon={self.total_epsilon - spent_eps:g}",
        ]
        if self.total_delta or spent_delta:
            parts.append(
                f"spent_delta={spent_delta:g}/{self.total_delta:g}"
            )
        parts.append(f"queries={queries}")
        return f"<PrivacyAccountant {' '.join(parts)}>"
