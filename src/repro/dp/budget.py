"""Privacy budget accounting (sequential composition)."""

from __future__ import annotations

import math
import threading
from typing import List, Tuple

from repro.common.errors import DPError, PrivacyBudgetExceeded


def _validate(epsilon: float, *, what: str) -> None:
    """Shared epsilon validation: finite and positive."""
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)):
        raise DPError(f"{what} epsilon must be finite, got {epsilon!r}")
    if epsilon <= 0:
        raise DPError(f"{what} epsilon must be positive, got {epsilon}")


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
    """Tracks cumulative epsilon spend under sequential composition.

    Every mechanism a release uses is pure epsilon-DP (Laplace), so
    there is no delta to account.

    Example:
        >>> acct = PrivacyAccountant(total_epsilon=1.0)
        >>> acct.charge(0.4, label="q1")
        >>> acct.remaining_epsilon()
        0.6
    """

    def __init__(self, total_epsilon: float):
        _validate(total_epsilon, what="total")
        self.total_epsilon = total_epsilon
        self._lock = threading.Lock()
        #: (epsilon, label) of every charge, in charge order.
        self._charges: List[Tuple[float, str]] = []
        #: the charges' running total, in charge order.
        self._spent = _RunningSum()

    def spent(self) -> float:
        """Epsilon spent so far."""
        with self._lock:
            return self._spent.value

    def remaining_epsilon(self) -> float:
        return self.total_epsilon - self.spent()

    def _require_locked(self, epsilon: float) -> None:
        """Raise unless the balance covers the spend; caller holds the lock."""
        spent = self._spent.value
        if spent + epsilon > self.total_epsilon + 1e-12:
            raise PrivacyBudgetExceeded(epsilon, self.total_epsilon - spent)

    def require(self, epsilon: float) -> None:
        """Raise what :meth:`charge` would raise, recording nothing.

        A release asks this before it does any work and charges only
        once it is certain to answer, so a refused submission is free.
        """
        _validate(epsilon, what="charged")
        with self._lock:
            self._require_locked(epsilon)

    def charge(self, epsilon: float, label: str = "") -> None:
        """Record a query's spend; raises if the budget would be exceeded."""
        _validate(epsilon, what="charged")
        with self._lock:
            self._require_locked(epsilon)
            self._charges.append((epsilon, label))
            self._spent.add(epsilon)

    def history(self) -> List[Tuple[float, str]]:
        """(epsilon, label) of every charge, in charge order."""
        with self._lock:
            return list(self._charges)

    def __repr__(self) -> str:
        with self._lock:
            spent = self._spent.value
            queries = len(self._charges)
        return (
            f"<PrivacyAccountant spent_epsilon={spent:g}/"
            f"{self.total_epsilon:g} remaining_epsilon="
            f"{self.total_epsilon - spent:g} queries={queries}>"
        )
