"""Differential-privacy foundations: mechanism, sensitivity, budget.

These are the textbook building blocks UPA composes: Laplace noise
calibrated to a sensitivity value, and an epsilon accountant with
sequential composition.
"""

from repro.dp.budget import PrivacyAccountant
from repro.dp.mechanisms import LaplaceMechanism, laplace_noise
from repro.dp.sensitivity import SensitivityEstimate

__all__ = [
    "LaplaceMechanism",
    "PrivacyAccountant",
    "SensitivityEstimate",
    "laplace_noise",
]
