"""Group privacy: the paper's section VI-E future-work extension.

UPA enforces iDP — privacy for one record.  The paper notes it "can be
extended to enforce DP for a group of individuals by reusing the
results computed from the sampled neighbouring datasets".  This module
does exactly that: instead of removing one sampled record at a time, it
removes *groups of k* sampled records, reusing the same R(M(S'))
aggregate, and infers a group-level sensitivity / output range with the
same estimator.  Noise calibrated to that range yields epsilon-DP
against adversaries who control up to k records.

For comparison it also exposes the classic theoretical route: an
epsilon-iDP mechanism is (k * epsilon)-DP for groups of k, i.e. one can
divide epsilon by k instead of re-inferring (usually more noise than
the group-sampled range, since influences rarely stack adversarially
among *sampled* groups — the envelope still guards the release).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common.errors import DPError
from repro.common.rng import derive_seed, make_rng
from repro.core.inference import (
    InferredRange,
    infer_local_sensitivity,
    infer_output_range,
)
from repro.core.query import MapReduceQuery, Tables
from repro.core.sampling import partition_and_sample
from repro.core.session import reduce_phase
from repro.dp.mechanisms import LaplaceMechanism
from repro.engine.context import EngineContext
from repro.obs.tracing import NULL_TRACER


@dataclass
class GroupPrivacyResult:
    """Output of a group-private query.

    Attributes:
        noisy_output: the released value (noise covers groups of size k).
        plain_output: f(x) (not releasable).
        group_size: k.
        group_sensitivity: inferred width of the group-neighbour range.
        estimated_group_sensitivity: Definition II.1-style estimate at
            distance k.
        inferred_range: the group-neighbour output range.
        naive_sensitivity: k * (individual range width) — the classic
            composition bound, for comparison.
    """

    noisy_output: np.ndarray
    plain_output: np.ndarray
    group_size: int
    group_sensitivity: float
    estimated_group_sensitivity: float
    inferred_range: InferredRange
    naive_sensitivity: float


def sample_group_neighbour_outputs(
    query: MapReduceQuery,
    tables: Tables,
    group_size: int,
    num_groups: int = 1000,
    sample_size: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Outputs of f on datasets with ``group_size`` records removed.

    Groups are drawn from the sampled differing records; each group's
    output reuses R(M(S')) plus a fold over S minus the group — the same
    union-preserving trick as the k = 1 case, on the same phase 1–3
    functions a release runs.
    """
    if group_size < 1:
        raise DPError(f"group_size must be >= 1, got {group_size}")
    records = tables[query.protected_table]
    if group_size >= len(records):
        raise DPError(
            f"group_size {group_size} >= dataset size {len(records)}"
        )
    rng = make_rng(seed, "group-privacy")
    sample = partition_and_sample(query, tables, sample_size, rng)
    if group_size > sample.sample_size:
        raise DPError(
            f"group_size {group_size} exceeds the sampled record count "
            f"{sample.sample_size}; raise sample_size"
        )
    aux = query.build_aux(tables)
    state = reduce_phase(
        query, aux, sample, rng, engine=EngineContext(), parts=1,
        tracer=NULL_TRACER,
    )
    n = query.batch_length(state.mapped)
    rows: List[np.ndarray] = []
    for _ in range(num_groups):
        keep = np.delete(np.arange(n), rng.sample(range(n), group_size))
        rest = query.fold_batch(query.batch_select(state.mapped, keep))
        rows.append(query.finalize(query.combine(state.r_sprime, rest), aux))
    return np.vstack(rows)


def run_group_private_query(
    query: MapReduceQuery,
    tables: Tables,
    epsilon: float,
    group_size: int,
    num_groups: int = 1000,
    sample_size: int = 1000,
    seed: int = 0,
) -> GroupPrivacyResult:
    """Answer ``query`` with DP protection for groups of ``group_size``."""
    if epsilon <= 0:
        raise DPError(f"epsilon must be positive, got {epsilon}")

    outputs = sample_group_neighbour_outputs(
        query, tables, group_size, num_groups, sample_size, seed
    )
    plain = query.output(tables)
    population = len(tables[query.protected_table])
    inferred = infer_output_range(outputs, population)
    # include f(x) itself in the enforced range
    lower = np.minimum(inferred.lower, plain)
    upper = np.maximum(inferred.upper, plain)
    inferred = InferredRange(
        lower=lower, upper=upper, mean=inferred.mean, std=inferred.std,
        used_fallback=inferred.used_fallback,
    )
    estimated = infer_local_sensitivity(outputs, plain, population)

    individual = infer_output_range(
        sample_group_neighbour_outputs(
            query, tables, 1, num_groups, sample_size, seed
        ),
        population,
    )
    naive = group_size * individual.local_sensitivity

    mechanism = LaplaceMechanism(
        epsilon, seed=derive_seed(seed, "group-laplace")
    )
    noisy = mechanism.randomize(
        inferred.clamp(plain), inferred.local_sensitivity
    )
    return GroupPrivacyResult(
        noisy_output=np.asarray(noisy, dtype=float).reshape(-1),
        plain_output=plain,
        group_size=group_size,
        group_sensitivity=inferred.local_sensitivity,
        estimated_group_sensitivity=estimated,
        inferred_range=inferred,
        naive_sensitivity=naive,
    )


def group_epsilon_from_individual(epsilon: float, group_size: int) -> float:
    """Classic group-privacy composition: eps-iDP => (k*eps)-DP for k."""
    if epsilon <= 0 or group_size < 1:
        raise DPError("epsilon must be positive and group_size >= 1")
    return epsilon * group_size
