"""KMeans as a UPA MapReduceQuery.

One Lloyd iteration from fixed initial centers (held in aux):

* Mapper: per record, a one-hot (per-cluster count, per-cluster
  coordinate sums) pair for its nearest center.
* Reducer: elementwise sum.
* finalize: new centers = sums / counts (empty clusters keep their old
  center), flattened into a ``k * dim`` output vector.

The per-record influence on the output is bounded but uneven — records
far from their center move it most — giving the near-normal
neighbour-output distribution the paper reports for KMeans (its Fig. 3
notes the KMeans distribution is nearly identical to LR's).
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import column_values, leave_one_out, sequential_sum
from repro.core.query import MapReduceQuery, Row, Tables
from repro.mining.datasets import LifeScienceConfig, domain_point


class KMeansQuery(MapReduceQuery):
    """One Lloyd update step over the ``points`` table."""

    name = "kmeans"
    protected_table = "points"
    query_type = "ml"
    flex_supported = False

    def __init__(
        self,
        num_clusters: int = 3,
        dim: int = 4,
        initial_centers: Optional[np.ndarray] = None,
        dataset_config: Optional[LifeScienceConfig] = None,
    ):
        self.num_clusters = num_clusters
        self.dim = dim
        if initial_centers is not None:
            initial_centers = np.asarray(initial_centers, dtype=float)
            if initial_centers.shape != (num_clusters, dim):
                raise ValueError(
                    f"initial_centers must have shape ({num_clusters}, {dim}), "
                    f"got {initial_centers.shape}"
                )
        self.initial_centers = initial_centers
        self.output_dim = num_clusters * dim
        self._dataset_config = dataset_config or LifeScienceConfig(
            dim=dim, num_clusters=num_clusters
        )

    # -- monoid ------------------------------------------------------------

    def build_aux(self, tables: Tables) -> np.ndarray:
        if self.initial_centers is not None:
            return self.initial_centers
        # Deterministic data-dependent init: the first k distinct points.
        # Every center then owns a dense neighbourhood, so per-record
        # influence is small and near-normal (the paper observes the
        # KMeans neighbour-output distribution matches LR's).
        centers: list = []
        for record in tables[self.protected_table]:
            point = np.asarray(record["features"], dtype=float)
            if not any(np.allclose(point, c) for c in centers):
                centers.append(point)
            if len(centers) == self.num_clusters:
                break
        if len(centers) < self.num_clusters:
            raise ValueError(
                f"dataset has fewer than {self.num_clusters} distinct points"
            )
        return np.vstack(centers)

    def map_record(self, record: Row, aux: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        point = np.asarray(record["features"], dtype=float)
        distances = np.linalg.norm(aux - point, axis=1)
        nearest = int(np.argmin(distances))
        counts = np.zeros(self.num_clusters)
        counts[nearest] = 1.0
        sums = np.zeros((self.num_clusters, self.dim))
        sums[nearest] = point
        return (counts, sums)

    def zero(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.zeros(self.num_clusters),
            np.zeros((self.num_clusters, self.dim)),
        )

    def combine(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, agg, aux: np.ndarray) -> np.ndarray:
        counts, sums = agg
        centers = aux.copy()
        for k in range(self.num_clusters):
            if counts[k] > 0:
                centers[k] = sums[k] / counts[k]
        return centers.reshape(-1)

    # -- batched kernels -----------------------------------------------------
    # Batch layout: (counts (n, k), sums (n, k, dim)).

    def map_batch(self, records: Sequence[Row], aux: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(records)
        counts = np.zeros((n, self.num_clusters))
        sums = np.zeros((n, self.num_clusters, self.dim))
        if n == 0:
            return (counts, sums)
        points = column_values(records, "features")
        diffs = points[:, None, :] - np.asarray(aux, dtype=float)[None, :, :]
        distances = np.sqrt(np.sum(diffs * diffs, axis=-1))
        nearest = np.argmin(distances, axis=1)
        rows = np.arange(n)
        counts[rows, nearest] = 1.0
        sums[rows, nearest] = points
        return (counts, sums)

    def prefix_suffix_batch(self, elements):
        counts, sums = elements
        return (leave_one_out(counts), leave_one_out(sums))

    def combine_batch(self, agg, elements):
        counts, sums = elements
        return (
            np.asarray(agg[0], dtype=float) + counts,
            np.asarray(agg[1], dtype=float) + sums,
        )

    def finalize_batch(self, aggs, aux: np.ndarray) -> np.ndarray:
        counts, sums = aggs
        counts = np.asarray(counts, dtype=float)
        sums = np.asarray(sums, dtype=float)
        n = counts.shape[0]
        if n == 0:
            return np.empty((0, self.output_dim))
        centers = np.broadcast_to(
            np.asarray(aux, dtype=float), (n, self.num_clusters, self.dim)
        ).copy()
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied][:, None]
        return centers.reshape(n, -1)

    def fold_batch(self, elements):
        counts, sums = elements
        if counts.shape[0] == 0:
            return self.zero()
        return (sequential_sum(counts, None), sequential_sum(sums, None))

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        return domain_point(rng, self._dataset_config)

    def sample_domain_batch(self, rng: random.Random, tables: Tables,
                            n: int) -> Sequence[Row]:
        return domain_point.batch(rng, self._dataset_config, n)

    # -- convenience: full clustering loop ----------------------------------

    def fit(self, tables: Tables, iterations: int = 10) -> np.ndarray:
        """Plain Lloyd iterations (reference/testing); returns centers."""
        centers = self.build_aux(tables)
        for _ in range(iterations):
            step = KMeansQuery(
                self.num_clusters, self.dim, centers, self._dataset_config
            )
            centers = step.output(tables).reshape(self.num_clusters, self.dim)
        return centers

    @staticmethod
    def inertia(tables: Tables, centers: np.ndarray) -> float:
        """Sum of squared distances to nearest centers (utility metric)."""
        total = 0.0
        for record in tables["points"]:
            point = np.asarray(record["features"], dtype=float)
            total += float(np.min(np.sum((centers - point) ** 2, axis=1)))
        return total
