"""Synthetic life-science-like dataset for the ML workloads.

A Gaussian mixture over ``dim`` features with a configurable fraction
of heavy-tailed outliers, plus a linear-response column (for Linear
Regression) generated from a hidden ground-truth weight vector with
noise.  Rows are dicts like every other table in the reproduction:
``{"features": (f1, ..., fd), "label": y}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.common.rng import make_numpy_rng
from repro.core.query import BatchSampler, Row, Tables


@dataclass(frozen=True)
class LifeScienceConfig:
    """Generator knobs.

    Attributes:
        num_records: dataset size.
        dim: feature dimension.
        num_clusters: mixture components (KMeans ground truth).
        outlier_rate: fraction of records drawn from a wide (heavy)
            component — these dominate local sensitivity.
        outlier_scale: standard-deviation multiplier for outliers.
        label_noise: sigma of the response noise for regression.
        seed: master seed.
    """

    num_records: int = 20_000
    dim: int = 4
    num_clusters: int = 3
    outlier_rate: float = 0.01
    outlier_scale: float = 6.0
    label_noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_records < 10:
            raise ValueError("num_records must be at least 10")
        if self.dim < 1 or self.num_clusters < 1:
            raise ValueError("dim and num_clusters must be positive")


def make_life_science_tables(config: LifeScienceConfig) -> Tables:
    """Generate the ``points`` table used by KMeans and LR.

    Returns a tables dict (like the TPC-H generator) with one table
    named ``points``.
    """
    rng = make_numpy_rng(config.seed, "life-science")
    centers = rng.uniform(-10.0, 10.0, size=(config.num_clusters, config.dim))
    true_weights = rng.uniform(-2.0, 2.0, size=config.dim + 1)  # bias last

    rows: List[Row] = []
    for _ in range(config.num_records):
        cluster = int(rng.integers(config.num_clusters))
        if rng.random() < config.outlier_rate:
            point = centers[cluster] + rng.normal(
                0.0, config.outlier_scale, size=config.dim
            )
        else:
            point = centers[cluster] + rng.normal(0.0, 1.0, size=config.dim)
        label = float(
            point @ true_weights[:-1]
            + true_weights[-1]
            + rng.normal(0.0, config.label_noise)
        )
        rows.append(
            {"features": tuple(float(v) for v in point), "label": label}
        )
    return {"points": rows}


@BatchSampler
def domain_point(gen: np.random.Generator, config: LifeScienceConfig,
                 n: int) -> Dict[str, np.ndarray]:
    """Fresh records from the same domain (for +1 neighbours).

    Uniform over the bounding box of the mixture; ``features`` is one
    ``(n, dim)`` column, which the mining kernels read without boxing.
    """
    return {
        "features": gen.uniform(-13.0, 13.0, size=(n, config.dim)),
        "label": gen.uniform(-40.0, 40.0, size=n),
    }
