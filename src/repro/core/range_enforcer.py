"""RANGE ENFORCER (paper Algorithm 2).

Detects repeated-query attacks and clamps a submission's output into
its inferred range:

1. **Attack detection** — the output of the current query on each of
   the dataset's two stable partitions is compared with every prior
   submission's partition outputs.  If fewer than two partitions differ
   from some prior submission, the current and prior inputs may be
   neighbouring (differ by one record) and the queries may be the same
   — exactly the attack in the threat model.  UPA then removes two of
   the sampled records from the input and recomputes, forcing the
   datasets at least two records apart.
2. **Output-range constraint** — the final output is forced into the
   inferred range [lower, upper]; an out-of-range output is replaced by
   a uniform random value inside the range (Algorithm 2 l.17-18).
   The range is the one inferred for *this* submission: the registry
   keeps only each submission's two partition outputs, not its range,
   so a neighbour's release is clamped into its own freshly inferred
   range.  The paper's proof (section IV-C) assumes one range for the
   query on x and every neighbour; docs/privacy_analysis.md states
   what that leaves open.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.common.errors import DPError
from repro.core.inference import InferredRange


class EnforcerRuntime(Protocol):
    """Callbacks the enforcer needs from the running UPA pipeline."""

    def partition_outputs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current f(x1), f(x2)."""

    def final_output(self) -> np.ndarray:
        """Current f(x) (reduced over both partitions)."""

    def remove_two_records(self) -> bool:
        """Drop two sampled records from the input; False if exhausted."""


class EnforcementRefused(DPError):
    """The removal loop ran out of sampled records: the submission
    still looks neighbouring to a prior one, and is not registered.

    ``records_removed`` is what the loop took out before it gave up,
    and ``sweeps`` the passes over the registry it made.
    """

    #: a refusal always follows a match.
    matched_prior = True

    def __init__(self, message: str, records_removed: int, sweeps: int):
        super().__init__(message)
        self.records_removed = records_removed
        self.sweeps = sweeps


@dataclass
class EnforcementResult:
    """What RANGE ENFORCER did to one submission.

    Attributes:
        output: the final (clamped, possibly after removals) raw output.
        matched_prior: a prior submission looked neighbouring.
        records_removed: how many records were removed to break the match.
        clamped: the output fell outside the inferred range and was
            replaced by an in-range random value.
        sweeps: vectorised passes over the registry this submission
            took (one per matched prior, plus the pass that found no
            further match; 0 against an empty registry).
    """

    output: np.ndarray
    matched_prior: bool
    records_removed: int
    clamped: bool
    sweeps: int = 0


class _ShapeRegistry:
    """The prior submissions of one output shape, in registration order.

    ``rows[i, p]`` is partition ``p``'s flattened output of the i-th of
    them and ``ids[i]`` its position among all registered submissions.
    ``rows`` has spare capacity past ``len(ids)`` and doubles when full.
    """

    __slots__ = ("rows", "ids")

    def __init__(self, width: int):
        self.rows = np.empty((16, 2, width))
        self.ids: List[int] = []

    def append(self, outputs: np.ndarray, submission: int) -> None:
        count = len(self.ids)
        if count == len(self.rows):
            grown = np.empty((2 * count,) + self.rows.shape[1:])
            grown[:count] = self.rows
            self.rows = grown
        self.rows[count] = outputs
        self.ids.append(submission)


class RangeEnforcer:
    """Cross-query registry implementing Algorithm 2.

    One enforcer instance guards one dataset; UPA sessions share it
    across submissions.  The registry holds only what Algorithm 2
    compares — every prior submission's two partition outputs — as one
    stacked float array per output shape, so a submission is compared
    with all its priors by one ``np.isclose`` per pass (DESIGN.md
    section 5 item 8) instead of one call per prior.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 equality_rtol: float = 1e-9):
        self._by_shape: Dict[Tuple[int, ...], _ShapeRegistry] = {}
        self._count = 0
        self._rng = rng or random.Random(0)
        self._rtol = equality_rtol

    def __len__(self) -> int:
        return self._count

    def _neighbouring(self, rows: np.ndarray,
                      current: np.ndarray) -> np.ndarray:
        """Per prior in ``rows``: fewer than two partition outputs differ.

        The paper compares outputs exactly; identical computations give
        bitwise-identical floats, but we allow a tiny relative
        tolerance so re-orderings inside the engine cannot mask a
        genuine match.  ``isclose`` scales the tolerance by its second
        argument, so the prior goes first and ``current`` second.
        """
        same = np.isclose(rows, current, rtol=self._rtol, atol=0.0)
        return same.all(axis=2).any(axis=1)

    @staticmethod
    def _read(runtime: EnforcerRuntime,
              shape: Optional[Tuple[int, ...]] = None,
              ) -> Tuple[Tuple[int, ...], np.ndarray]:
        """The runtime's partition outputs: their shape, and a (2, d) array."""
        first, second = map(np.asarray, runtime.partition_outputs())
        if first.shape != second.shape or shape not in (None, first.shape):
            raise ValueError(
                "partition outputs of one submission must share one shape, "
                f"got {first.shape} and {second.shape}"
                + ("" if shape is None else f" after {shape}")
            )
        return first.shape, np.concatenate(
            (first, second), axis=None, dtype=float
        ).reshape(2, -1)

    def enforce(self, runtime: EnforcerRuntime,
                inferred: InferredRange) -> EnforcementResult:
        """Run Algorithm 2 for one submission and register it.

        Priors of another output shape never match and are not looked
        at.  Over the others, each sweep finds the first prior at or
        after ``pos`` that ``current`` is neighbouring to, the removal
        loop runs against that prior alone, and the next sweep starts
        behind it with the new ``current`` — the decisions, runtime
        calls and rng draws of visiting the priors one by one.
        """
        removed = 0
        sweeps = 0
        shape, current = self._read(runtime)
        priors = self._by_shape.get(shape)
        count = len(priors.ids) if priors is not None else 0
        pos = 0
        while pos < count:
            sweeps += 1
            neighbouring = self._neighbouring(priors.rows[pos:count], current)
            if not neighbouring.any():
                break
            pos += int(neighbouring.argmax())
            prior = priors.rows[pos:pos + 1]
            while True:
                if not runtime.remove_two_records():
                    raise EnforcementRefused(
                        "RANGE ENFORCER exhausted sampled records while "
                        "separating neighbouring submissions: after "
                        f"removing {removed} records the submission still "
                        "looks neighbouring to registered submission "
                        f"{priors.ids[pos]} of {self._count}, and fewer "
                        "than two sampled records are left",
                        removed, sweeps,
                    )
                removed += 2
                current = self._read(runtime, shape)[1]
                if not self._neighbouring(prior, current)[0]:
                    break
            pos += 1

        output = runtime.final_output()
        clamped = not inferred.contains(output)
        if clamped:
            span = inferred.upper - inferred.lower
            output = inferred.lower + np.array(
                [self._rng.random() for _ in range(span.shape[0])]
            ) * span

        if priors is None:
            priors = self._by_shape[shape] = _ShapeRegistry(current.shape[1])
        priors.append(current, self._count)
        self._count += 1
        return EnforcementResult(
            output=output,
            matched_prior=removed > 0,
            records_removed=removed,
            clamped=clamped,
            sweeps=sweeps,
        )

    def reset(self) -> None:
        """Forget all registered queries (new dataset / new epoch)."""
        self._by_shape.clear()
        self._count = 0
