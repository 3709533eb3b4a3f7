"""The noise mechanism.

UPA uses the Laplace mechanism (paper, Algorithm 1 output line).  It
accepts scalar or vector outputs; vectors are noised per coordinate
with the sensitivity interpreted as an L1 bound.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.common.errors import DPError
from repro.common.rng import make_numpy_rng

ArrayLike = Union[float, np.ndarray]


def laplace_noise(
    scale: float, size: Optional[int] = None, rng: Optional[np.random.Generator] = None
) -> ArrayLike:
    """Draw Laplace(0, scale) noise; scalar when ``size`` is None."""
    if scale < 0:
        raise DPError(f"Laplace scale must be non-negative, got {scale}")
    generator = rng if rng is not None else make_numpy_rng(None)
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    return generator.laplace(0.0, scale, size=size)


class LaplaceMechanism:
    """epsilon-DP Laplace mechanism.

    Example:
        >>> mech = LaplaceMechanism(epsilon=1.0, seed=0)
        >>> noisy = mech.randomize(42.0, sensitivity=1.0)
    """

    def __init__(self, epsilon: float, seed: Optional[int] = None):
        if epsilon <= 0:
            raise DPError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon
        self._rng = make_numpy_rng(seed, "laplace-mechanism")

    def scale(self, sensitivity: float) -> float:
        """Noise scale b = sensitivity / epsilon."""
        if sensitivity < 0:
            raise DPError(f"sensitivity must be non-negative, got {sensitivity}")
        return sensitivity / self.epsilon

    def randomize(self, value: ArrayLike, sensitivity: float) -> ArrayLike:
        """Add Laplace noise calibrated to an L1 ``sensitivity``."""
        b = self.scale(sensitivity)
        if np.isscalar(value):
            return float(value) + float(laplace_noise(b, rng=self._rng))
        array = np.asarray(value, dtype=float)
        return array + laplace_noise(b, size=array.shape[0], rng=self._rng)
