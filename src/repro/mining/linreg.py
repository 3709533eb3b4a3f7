"""Linear Regression as a UPA MapReduceQuery (paper's running example).

One gradient-descent step on squared loss:

* Mapper: per record, the gradient contribution
  ``(prediction - label) * [features, 1]`` at the current weights
  (held in aux), plus a count of 1.
* Reducer: elementwise sum (commutative + associative).
* finalize: ``weights - lr * grad_sum / count`` — the updated model,
  which is the query output the paper privatizes (its evaluation notes
  LR's output differs across neighbouring datasets, hence iDP matters).

The output is a vector of dimension ``dim + 1``; UPA infers a
per-coordinate output range and uses the L1 width as sensitivity.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    column_values,
    leave_one_out,
    sequential_dot,
    sequential_sum,
)
from repro.core.query import MapReduceQuery, Row, Tables
from repro.mining.datasets import LifeScienceConfig, domain_point


def extended_features(records: Sequence[Row]) -> np.ndarray:
    """Stack records' feature vectors with the bias column appended."""
    features = column_values(records, "features")
    return np.concatenate([features, np.ones((len(records), 1))], axis=1)


class LinearRegressionQuery(MapReduceQuery):
    """One synchronous SGD step over the ``points`` table."""

    name = "linreg"
    protected_table = "points"
    query_type = "ml"
    flex_supported = False

    def __init__(
        self,
        dim: int = 4,
        learning_rate: float = 0.005,
        initial_weights: Optional[np.ndarray] = None,
        dataset_config: Optional[LifeScienceConfig] = None,
    ):
        self.dim = dim
        self.learning_rate = learning_rate
        if initial_weights is None:
            initial_weights = np.zeros(dim + 1)
        self.initial_weights = np.asarray(initial_weights, dtype=float)
        if self.initial_weights.shape != (dim + 1,):
            raise ValueError(
                f"initial_weights must have shape ({dim + 1},), got "
                f"{self.initial_weights.shape}"
            )
        self.output_dim = dim + 1
        self._dataset_config = dataset_config or LifeScienceConfig(dim=dim)

    # -- monoid ------------------------------------------------------------

    def build_aux(self, tables: Tables) -> np.ndarray:
        return self.initial_weights

    def map_record(self, record: Row, aux: np.ndarray) -> Tuple[np.ndarray, int]:
        x = np.asarray(record["features"], dtype=float)
        extended = np.append(x, 1.0)
        residual = float(extended @ aux) - record["label"]
        return (residual * extended, 1)

    def zero(self) -> Tuple[np.ndarray, int]:
        return (np.zeros(self.output_dim), 0)

    def combine(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, agg, aux: np.ndarray) -> np.ndarray:
        grad_sum, count = agg
        if count == 0:
            return aux.copy()
        return aux - self.learning_rate * grad_sum / count

    # -- batched kernels -----------------------------------------------------
    # Batch layout: (gradients (n, dim + 1), counts (n,)).

    def map_batch(self, records: Sequence[Row], aux: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        if not records:
            return (np.zeros((0, self.output_dim)), np.zeros(0))
        extended = extended_features(records)
        labels = column_values(records, "label")
        residuals = (
            sequential_dot(extended, np.asarray(aux, dtype=float)) - labels
        )
        return (residuals[:, None] * extended, np.ones(len(records)))

    def prefix_suffix_batch(self, elements):
        gradients, counts = elements
        return (leave_one_out(gradients), leave_one_out(counts))

    def combine_batch(self, agg, elements):
        gradients, counts = elements
        return (
            np.asarray(agg[0], dtype=float) + gradients,
            float(agg[1]) + counts,
        )

    def finalize_batch(self, aggs, aux: np.ndarray) -> np.ndarray:
        gradients, counts = aggs
        gradients = np.asarray(gradients, dtype=float)
        counts = np.asarray(counts, dtype=float).reshape(-1)
        n = counts.shape[0]
        if n == 0:
            return np.empty((0, self.output_dim))
        aux = np.asarray(aux, dtype=float)
        outputs = np.tile(aux, (n, 1))
        populated = counts > 0
        outputs[populated] = (
            aux
            - self.learning_rate * gradients[populated]
            / counts[populated][:, None]
        )
        return outputs

    def fold_batch(self, elements):
        gradients, counts = elements
        if counts.shape[0] == 0:
            return self.zero()
        return (
            sequential_sum(gradients, None),
            float(sequential_sum(counts, None)),
        )

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        return domain_point(rng, self._dataset_config)

    def sample_domain_batch(self, rng: random.Random, tables: Tables,
                            n: int) -> Sequence[Row]:
        return domain_point.batch(rng, self._dataset_config, n)

    # -- convenience: full (non-private) training loop ---------------------

    def train(self, tables: Tables, steps: int = 20) -> np.ndarray:
        """Plain gradient descent for ``steps`` steps (reference/testing)."""
        weights = self.initial_weights
        for _ in range(steps):
            step = LinearRegressionQuery(
                self.dim, self.learning_rate, weights, self._dataset_config
            )
            weights = step.output(tables)
        return weights

    @staticmethod
    def mean_squared_error(tables: Tables, weights: np.ndarray) -> float:
        """MSE of a model over the points table (utility metric)."""
        total = 0.0
        rows = tables["points"]
        for record in rows:
            extended = np.append(np.asarray(record["features"]), 1.0)
            residual = float(extended @ weights) - record["label"]
            total += residual * residual
        return total / len(rows)
