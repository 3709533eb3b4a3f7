"""Utility studies: how accurate are UPA's released answers?

The paper argues accuracy of the *sensitivity* translates into utility
of the *released values* (noise is proportional to sensitivity).  This
module measures that end-to-end: relative error of released answers
across trials and epsilons, for UPA's inferred sensitivity versus what
a system forced to use FLEX's (overestimated) sensitivity would
release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.common.rng import derive_seed
from repro.core.query import MapReduceQuery, Tables
from repro.core.session import UPAConfig, UPASession
from repro.dp.mechanisms import LaplaceMechanism


@dataclass
class UtilityPoint:
    """Released-answer error statistics at one epsilon."""

    epsilon: float
    mean_absolute_error: float
    mean_relative_error: float  # fraction of |truth| (inf-safe)


@dataclass
class UtilityStudy:
    """Utility-vs-epsilon curve for one query."""

    query_name: str
    truth: float
    points: List[UtilityPoint]


def released_error_curve(
    query: MapReduceQuery,
    tables: Tables,
    epsilons: Sequence[float],
    trials: int = 10,
    sample_size: int = 500,
    seed: int = 0,
) -> UtilityStudy:
    """Measure UPA's released-answer error across epsilons.

    Each trial uses a fresh session (fresh enforcer registry) so trials
    are independent first submissions.
    """
    truth = float(query.output(tables).reshape(-1)[0])
    points = []
    for epsilon in epsilons:
        errors = []
        for trial in range(trials):
            session = UPASession(
                UPAConfig(
                    sample_size=sample_size,
                    seed=derive_seed(seed, f"utility-{epsilon}-{trial}"),
                )
            )
            released = session.run(query, tables, epsilon=epsilon)
            errors.append(abs(released.noisy_scalar() - truth))
        mae = float(np.mean(errors))
        scale = max(abs(truth), 1e-12)
        points.append(UtilityPoint(epsilon, mae, mae / scale))
    return UtilityStudy(query.name, truth, points)


def noise_with_sensitivity(
    truth: float,
    sensitivity: float,
    epsilon: float,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Mean absolute error if noise were calibrated to ``sensitivity``.

    Used to show what FLEX's overestimated sensitivities would cost in
    utility for the same epsilon.
    """
    mechanism = LaplaceMechanism(epsilon, seed=derive_seed(seed, "what-if"))
    errors = [
        abs(mechanism.randomize(truth, sensitivity) - truth)
        for _ in range(trials)
    ]
    return float(np.mean(errors))
