"""Brute-force local sensitivity: the ground truth (Definition II.1).

Evaluates the query on *every* removal neighbour (all |x| of them) and
on a pool of sampled addition neighbours, then takes the extremes.

Naively this is |x| full query evaluations (the paper's "one million
runs" complaint).  Because our queries expose their monoid reducer, the
same exact values are computed in O(|x|) combines with prefix/suffix
folds — this changes the cost, not the values (verified against literal
re-evaluation in tests).  ``neighbour_outputs`` feeds Fig. 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.rng import make_rng
from repro.core.query import MapReduceQuery, Tables
from repro.obs.tracing import trace


@dataclass(frozen=True)
class BruteForceResult:
    """Exact neighbourhood statistics of f around x.

    Attributes:
        output: f(x).
        removal_outputs: f(x - r) for every record r (shape (|x|, d)).
        addition_outputs: f(x + r) for sampled domain records.
        local_sensitivity: max over neighbours y of the L1 distance
            |f(x) - f(y)|  (Definition II.1).
        range_width: L1 width of the neighbour-output envelope,
            sum_j (max_y f_j(y) - min_y f_j(y)) with f(x) included —
            the quantity UPA's inferred output range estimates (the
            blue lines in the paper's Figure 3).
        range_lower/range_upper: the envelope bounds per coordinate.
    """

    output: np.ndarray
    removal_outputs: np.ndarray
    addition_outputs: np.ndarray
    local_sensitivity: float
    range_width: float
    range_lower: np.ndarray
    range_upper: np.ndarray

    @property
    def neighbour_outputs(self) -> np.ndarray:
        if self.addition_outputs.size == 0:
            return self.removal_outputs
        return np.vstack([self.removal_outputs, self.addition_outputs])


def exact_local_sensitivity(
    query: MapReduceQuery,
    tables: Tables,
    addition_samples: int = 0,
    seed: int = 0,
    max_removals: Optional[int] = None,
) -> BruteForceResult:
    """Compute the exact neighbourhood of f around x.

    Args:
        addition_samples: how many "+1 record" neighbours to include
            (the removal side is always exhaustive).
        max_removals: optionally cap the removal neighbours (useful in
            quick tests); None = all records.
    """
    with trace("baseline.bruteforce", query=query.name,
               addition_samples=addition_samples):
        return _exact_local_sensitivity(
            query, tables, addition_samples, seed, max_removals
        )


def _exact_local_sensitivity(
    query: MapReduceQuery,
    tables: Tables,
    addition_samples: int,
    seed: int,
    max_removals: Optional[int],
) -> BruteForceResult:
    aux = query.build_aux(tables)
    records = tables[query.protected_table]
    mapped = query.map_batch(records, aux)

    full_agg = query.fold_batch(mapped)
    output = query.finalize(full_agg, aux)

    # Batched prefix/suffix folds: fold(mapped minus i) for all i in one
    # vectorized pass (O(N) combines; same values as literal re-folds).
    n_removals = len(records)
    if max_removals is not None:
        n_removals = min(n_removals, max_removals)
    if n_removals > 0:
        all_but_one = query.prefix_suffix_batch(mapped)
        removal_outputs = np.asarray(
            query.finalize_batch(all_but_one, aux), dtype=float
        )[:n_removals]
    else:
        removal_outputs = np.empty((0, query.output_dim))

    rng = make_rng(seed, "bruteforce-additions")
    added_records = query.sample_domain_batch(rng, tables, addition_samples)
    if added_records:
        extras = query.map_batch(added_records, aux)
        addition_outputs = np.asarray(
            query.finalize_batch(query.combine_batch(full_agg, extras), aux),
            dtype=float,
        )
    else:
        addition_outputs = np.empty((0, query.output_dim))

    neighbours = (
        np.vstack([removal_outputs, addition_outputs])
        if addition_outputs.size
        else removal_outputs
    )
    if neighbours.size == 0:
        raise ValueError("dataset has no neighbours to evaluate")

    deltas = np.abs(neighbours - output).sum(axis=1)
    local_sensitivity = float(deltas.max())

    everything = np.vstack([neighbours, output.reshape(1, -1)])
    range_lower = everything.min(axis=0)
    range_upper = everything.max(axis=0)
    range_width = float(np.sum(range_upper - range_lower))

    return BruteForceResult(
        output=output,
        removal_outputs=removal_outputs,
        addition_outputs=addition_outputs,
        local_sensitivity=local_sensitivity,
        range_width=range_width,
        range_lower=range_lower,
        range_upper=range_upper,
    )


def literal_local_sensitivity(
    query: MapReduceQuery, tables: Tables, max_removals: Optional[int] = None
) -> float:
    """Definition II.1 by literally re-running the query per neighbour.

    O(N^2); only for small test datasets, to validate the prefix/suffix
    implementation above.
    """
    records = tables[query.protected_table]
    output = query.output(tables)
    n = len(records) if max_removals is None else min(len(records), max_removals)
    worst = 0.0
    for i in range(n):
        reduced = dict(tables)
        reduced[query.protected_table] = records[:i] + records[i + 1:]
        neighbour = query.output(reduced)
        worst = max(worst, float(np.abs(neighbour - output).sum()))
    return worst
