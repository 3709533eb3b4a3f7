"""Logistic Regression as a UPA MapReduceQuery (beyond-paper workload).

Same decomposition as Linear Regression: one synchronous gradient step
on the logistic loss at fixed current weights.  The dataset's labels
are binarized (positive iff the regression label exceeds its median at
construction time — callers may pass their own threshold).
"""

from __future__ import annotations

import math
import random
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    column_values,
    leave_one_out,
    sequential_dot,
    sequential_sum,
)
from repro.core.query import MapReduceQuery, Row, Tables
from repro.mining.datasets import LifeScienceConfig, domain_point
from repro.mining.linreg import extended_features


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _sigmoid_batch(z: np.ndarray) -> np.ndarray:
    """Numerically stable vectorized sigmoid (same branches as scalar)."""
    out = np.empty_like(z)
    nonneg = z >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-z[nonneg]))
    ez = np.exp(z[~nonneg])
    out[~nonneg] = ez / (1.0 + ez)
    return out


class LogisticRegressionQuery(MapReduceQuery):
    """One gradient step of L2-less logistic regression."""

    name = "logreg"
    protected_table = "points"
    query_type = "ml"
    flex_supported = False

    def __init__(
        self,
        dim: int = 4,
        learning_rate: float = 0.1,
        label_threshold: float = 0.0,
        initial_weights: Optional[np.ndarray] = None,
        dataset_config: Optional[LifeScienceConfig] = None,
    ):
        self.dim = dim
        self.learning_rate = learning_rate
        self.label_threshold = label_threshold
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

    def _target(self, record: Row) -> float:
        return 1.0 if record["label"] > self.label_threshold else 0.0

    def map_record(self, record: Row, aux: np.ndarray) -> Tuple[np.ndarray, int]:
        x = np.append(np.asarray(record["features"], dtype=float), 1.0)
        prediction = _sigmoid(float(x @ aux))
        gradient = (prediction - self._target(record)) * x
        return (gradient, 1)

    def zero(self) -> Tuple[np.ndarray, int]:
        return (np.zeros(self.output_dim), 0)

    def combine(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, agg, aux: np.ndarray) -> np.ndarray:
        gradient_sum, count = agg
        if count == 0:
            return aux.copy()
        return aux - self.learning_rate * gradient_sum / count

    # -- batched kernels -----------------------------------------------------
    # Batch layout: (gradients (n, dim + 1), counts (n,)) — same as
    # LinearRegressionQuery, with the residual replaced by the logistic
    # prediction error.

    def map_batch(self, records: Sequence[Row], aux: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        if not records:
            return (np.zeros((0, self.output_dim)), np.zeros(0))
        extended = extended_features(records)
        predictions = _sigmoid_batch(
            sequential_dot(extended, np.asarray(aux, dtype=float))
        )
        targets = (
            column_values(records, "label") > self.label_threshold
        ).astype(float)
        return ((predictions - targets)[:, None] * extended,
                np.ones(len(records)))

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

    # -- reference training / metrics ---------------------------------------

    def train(self, tables: Tables, steps: int = 30) -> np.ndarray:
        weights = self.initial_weights
        for _ in range(steps):
            step = LogisticRegressionQuery(
                self.dim, self.learning_rate, self.label_threshold, weights,
                self._dataset_config,
            )
            weights = step.output(tables)
        return weights

    def accuracy(self, tables: Tables, weights: np.ndarray) -> float:
        """Classification accuracy of a model over the points table."""
        correct = 0
        rows = tables["points"]
        for record in rows:
            x = np.append(np.asarray(record["features"]), 1.0)
            prediction = 1.0 if _sigmoid(float(x @ weights)) >= 0.5 else 0.0
            correct += prediction == self._target(record)
        return correct / len(rows)
