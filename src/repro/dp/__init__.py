"""Differential-privacy foundations: mechanism and budget.

These are the textbook building blocks UPA composes: Laplace noise
calibrated to a sensitivity value, and an epsilon accountant with
sequential composition.
"""

from repro.dp.budget import PrivacyAccountant
from repro.dp.mechanisms import LaplaceMechanism, laplace_noise

__all__ = [
    "LaplaceMechanism",
    "PrivacyAccountant",
    "laplace_noise",
]
