"""Neighbourhood studies: the data behind the paper's Figure 3.

For one query and dataset, collect the outputs on *all* neighbouring
datasets (brute force), then overlay the output ranges UPA infers at
several sample sizes, reporting the coverage of each — the red/coloured
lines versus the blue ground-truth lines in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.baselines.bruteforce import BruteForceResult, exact_local_sensitivity
from repro.core.inference import InferredRange
from repro.core.query import MapReduceQuery, Tables
from repro.core.session import UPAConfig, UPASession


@dataclass
class RangeAtSampleSize:
    """UPA's inferred range at one sample size n."""

    sample_size: int
    inferred: InferredRange
    coverage: float  # fraction of true neighbour outputs inside the range
    width_ratio: float  # inferred width / true envelope width


@dataclass
class NeighbourhoodStudy:
    """All Fig. 3 ingredients for one query."""

    query_name: str
    truth: BruteForceResult
    ranges: List[RangeAtSampleSize] = field(default_factory=list)


def study_neighbourhood(
    query: MapReduceQuery,
    tables: Tables,
    sample_sizes: Sequence[int] = (100, 1000, 10_000),
    addition_samples: int = 1000,
    seed: int = 0,
) -> NeighbourhoodStudy:
    """Run the Fig. 3 experiment for one query."""
    truth = exact_local_sensitivity(
        query, tables, addition_samples=addition_samples, seed=seed
    )
    study = NeighbourhoodStudy(query_name=query.name, truth=truth)
    true_width = max(truth.range_width, 1e-12)
    for n in sample_sizes:
        session = UPASession(UPAConfig(sample_size=n, seed=seed))
        inferred = session.infer_sensitivity(query, tables)
        study.ranges.append(
            RangeAtSampleSize(
                sample_size=n,
                inferred=inferred,
                coverage=inferred.coverage(truth.neighbour_outputs),
                width_ratio=inferred.local_sensitivity / true_width,
            )
        )
    return study
