"""Grouped releases: DP histograms via per-group UPA queries.

SQL ``GROUP BY`` cannot be released as-is (the group *keys* themselves
can leak, and a single record moves one group's aggregate).  The
standard practice, implemented here: the analyst supplies a **public
domain** of groups (e.g. the five TPC-H order priorities — schema
knowledge, not data), each group becomes one scalar counting/sum query,
and UPA answers each under an equal share of the submission's epsilon.

Because neighbouring datasets differ in one protected record and each
record belongs to exactly one group, the per-group queries *partition*
the record's influence: by parallel composition the whole histogram
costs ``epsilon`` (not ``epsilon * num_groups``) when groups are
disjoint, which :func:`release_histogram` asserts by construction
(each record is mapped to exactly one group by ``group_of``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.common.errors import DPError
from repro.core.batch import ScalarSumBatch
from repro.core.query import MapReduceQuery, Row, Tables, sample_batch
from repro.core.session import UPAConfig, UPASession

GroupOf = Callable[[Row], Hashable]
ValueOf = Callable[[Row], float]


class GroupSliceQuery(ScalarSumBatch, MapReduceQuery):
    """A scalar query restricted to one group of the protected table."""

    output_dim = 1

    def __init__(
        self,
        base_name: str,
        protected_table: str,
        group: Hashable,
        group_of: GroupOf,
        value_of: Optional[ValueOf],
        domain_sampler,
    ):
        self.name = f"{base_name}[{group!r}]"
        self.protected_table = protected_table
        self.group = group
        self._group_of = group_of
        self._value_of = value_of
        self._domain_sampler = domain_sampler

    def map_record(self, record: Row, aux: Any) -> float:
        if self._group_of(record) != self.group:
            return 0.0
        if self._value_of is None:
            return 1.0
        return float(self._value_of(record))

    def zero(self) -> float:
        return 0.0

    def combine(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, agg: float, aux: Any) -> np.ndarray:
        return np.asarray([agg], dtype=float)

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        return self._domain_sampler(rng, tables)

    def sample_domain_batch(self, rng: random.Random, tables: Tables,
                            n: int) -> Sequence[Row]:
        return sample_batch(self._domain_sampler, rng, tables, n)


@dataclass
class HistogramResult:
    """A released DP histogram.

    Attributes:
        released: group -> noisy aggregate.
        true_values: group -> true aggregate (evaluation only!).
        epsilon: total budget spent (parallel composition over disjoint
            groups).
        per_group_sensitivity: group -> inferred sensitivity.
    """

    released: Dict[Hashable, float]
    true_values: Dict[Hashable, float]
    epsilon: float
    per_group_sensitivity: Dict[Hashable, float]


def release_histogram(
    tables: Tables,
    protected_table: str,
    groups: Sequence[Hashable],
    group_of: GroupOf,
    epsilon: float,
    value_of: Optional[ValueOf] = None,
    domain_sampler=None,
    name: str = "histogram",
    sample_size: int = 500,
    seed: int = 0,
) -> HistogramResult:
    """Release a per-group count (or sum) histogram under epsilon-DP.

    Args:
        groups: the public group domain; groups absent from the data
            are still released (as noise around zero) — suppressing
            empty groups would leak.
        group_of: maps a protected record to its group (a record in no
            listed group contributes nowhere).
        value_of: None for counts, or a per-record value for sums.
        epsilon: total budget; by parallel composition each group's
            query runs at the full epsilon.
    """
    if epsilon <= 0:
        raise DPError(f"epsilon must be positive, got {epsilon}")
    if len(set(groups)) != len(groups):
        raise DPError("group domain contains duplicates")

    released: Dict[Hashable, float] = {}
    truths: Dict[Hashable, float] = {}
    sensitivities: Dict[Hashable, float] = {}
    for i, group in enumerate(groups):
        query = GroupSliceQuery(
            name, protected_table, group, group_of, value_of, domain_sampler
        )
        session = UPASession(
            UPAConfig(sample_size=sample_size, seed=seed * 1009 + i)
        )
        result = session.run(query, tables, epsilon=epsilon)
        released[group] = result.noisy_scalar()
        truths[group] = float(result.plain_output[0])
        sensitivities[group] = result.local_sensitivity
    return HistogramResult(
        released=released,
        true_values=truths,
        epsilon=epsilon,
        per_group_sensitivity=sensitivities,
    )
