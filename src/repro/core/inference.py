"""Phase 4 of UPA: local-sensitivity inference (Algorithm 1, l.17-21).

Given the outputs of the query on the sampled neighbouring datasets
({o_i} for removals, {o-bar_i} for additions), UPA fits a normal
distribution per output coordinate by MLE and reads a low and a high
tail of it as the inferred output range; the local sensitivity is the
(L1) width of that range.  There is one estimator, which differs from
the paper's bare description in three ways:

* **population-extrapolated tail**: the paper's fixed 1st/99th
  percentiles estimate where ~98 % of *sampled* neighbours fall, but the
  ground-truth local sensitivity (Definition II.1) is a max over *all*
  |x| neighbours.  The tail level is the expected extreme of
  ``population`` draws from the fitted normal, ``1/(2 max(N, m, 2))``,
  never above 1 %, which is what makes UPA's estimate land within a few
  percent of the brute-force value, as Figure 2(a) reports.
* **discrete fallback**: when a coordinate's sampled outputs take at
  most ten distinct values (counting queries: TPCH1's neighbours are
  exactly {C-1, C+1}), a normal fit is meaningless and grossly
  over-covers; the empirical min/max is exact there.  This is why the
  paper's TPCH1 error is ~1e-9 rather than ~2x.
* **envelope**: the range covers every *sampled* neighbour output.
  Those are genuine neighbour outputs, so a range excluding them would
  make RANGE ENFORCER clamp legitimate answers; the envelope also
  rescues heavy-tailed coordinates the normal fit under-covers.

Algorithm 1 verbatim (``mean ± ndtri(0.99) std`` of the same fit) lives
in the Fig. 3 bench, which compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import DPError

# The range is never narrower than the paper's 1st/99th percentiles.
MAX_TAIL_LEVEL = 0.01
# A count's neighbours take a handful of values, too few to fit.
DISCRETE_DISTINCT_MAX = 10

# Coefficient tables of the cephes ``ndtri`` routine (the kernel behind
# ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf``), leading
# coefficient first; the Q tables omit their leading 1.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y from exp(-2) down to exp(-32)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# z in [8, 64]: y from exp(-32) down to exp(-2048)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: Sequence[float]) -> float:
    """Horner evaluation of ``coef[0] x^n + ... + coef[n]``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """:func:`_polevl` for a polynomial whose leading 1 is left out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y: float) -> float:
    """Inverse of the standard normal CDF: ``x`` with ``Phi(x) = y``.

    A scalar port of the cephes routine, operation for operation, so
    it returns the bits ``scipy.special.ndtri`` returns (the tests pin
    that over every level :func:`infer_output_range` can ask for).  It
    lives here because that function is its one caller in the package,
    and one scalar per release is not worth importing scipy for.
    ``0`` and ``1`` map to ``-inf`` / ``inf``, anything outside
    ``[0, 1]`` to nan.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@dataclass(frozen=True)
class InferredRange:
    """The inferred output range and local sensitivity.

    Attributes:
        lower/upper: per-coordinate range bounds (RANGE ENFORCER clamps
            outputs into [lower, upper]).
        local_sensitivity: L1 width sum(upper - lower); for scalar
            outputs this is simply the range width.
        mean/std: the MLE normal fit per coordinate.
        used_fallback: mask of coordinates where the discrete fallback
            applied.
    """

    lower: np.ndarray
    upper: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    used_fallback: np.ndarray

    @property
    def local_sensitivity(self) -> float:
        return float(np.sum(self.upper - self.lower))

    def clamp(self, value: np.ndarray) -> np.ndarray:
        """Clamp a value into the range (used for reporting; RANGE
        ENFORCER replaces out-of-range outputs with a random in-range
        value, see Algorithm 2 l.17-18)."""
        return np.clip(np.asarray(value, dtype=float), self.lower, self.upper)

    def contains(self, value: np.ndarray) -> bool:
        value = np.asarray(value, dtype=float)
        return bool(np.all(value >= self.lower) and np.all(value <= self.upper))

    def coverage(self, outputs: np.ndarray) -> float:
        """Fraction of output rows fully inside the range (Fig. 3 metric)."""
        outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
        inside = np.all(
            (outputs >= self.lower) & (outputs <= self.upper), axis=1
        )
        return float(np.mean(inside))


def _distinct_counts(ordered: np.ndarray) -> np.ndarray:
    """Distinct values per column of an array sorted along axis 0,
    counted as ``np.unique`` counts them: ``-0.0`` equals ``0.0`` and
    every NaN (NaNs sort last) is one value."""
    new = ordered[1:] != ordered[:-1]
    new &= ~np.isnan(ordered[:-1])
    return 1 + np.count_nonzero(new, axis=0)


def infer_local_sensitivity(
    neighbour_outputs: np.ndarray,
    center: np.ndarray,
    population: int,
) -> float:
    """Estimate Definition II.1's local sensitivity from sampled neighbours.

    The paper treats local sensitivity "as a random variable that
    follows a normal distribution" (section IV-A): here that variable is
    the per-neighbour L1 deviation ``delta_i = |f(x) - f(y_i)|_1``, and
    the estimate is the upper bound :func:`infer_output_range` infers
    for the one column of deltas — the same tail level, discrete
    fallback and envelope.

    This scalar estimate is what the Fig. 2(a) accuracy comparison uses;
    the *mechanism* keeps using the (conservative) output-range width,
    which RANGE ENFORCER makes a guaranteed upper bound.
    """
    outputs = np.atleast_2d(np.asarray(neighbour_outputs, dtype=float))
    if outputs.size == 0:
        raise DPError("cannot infer sensitivity from zero neighbour outputs")
    center = np.asarray(center, dtype=float).reshape(-1)
    deltas = np.abs(outputs - center).sum(axis=1)
    return float(infer_output_range(deltas[:, None], population).upper[0])


def infer_output_range(
    neighbour_outputs: np.ndarray, population: int
) -> InferredRange:
    """Fit per-coordinate normals and derive the output range.

    Args:
        neighbour_outputs: array of shape (m, d) — one row per sampled
            neighbouring dataset's output.
        population: number of neighbouring datasets in the full
            population (|x| removals + additions); sets the tail level.
    """
    outputs = np.atleast_2d(np.asarray(neighbour_outputs, dtype=float))
    if outputs.size == 0:
        raise DPError("cannot infer a range from zero neighbour outputs")
    m = outputs.shape[0]

    mean = outputs.mean(axis=0)
    std = outputs.std(axis=0)  # MLE (ddof=0)

    level = min(1.0 / (2.0 * max(population, m, 2)), MAX_TAIL_LEVEL)
    z = ndtri(1.0 - level)
    lower = mean - z * std
    upper = mean + z * std

    used_fallback = (
        _distinct_counts(np.sort(outputs, axis=0)) <= DISCRETE_DISTINCT_MAX
    )
    for j in np.flatnonzero(used_fallback):
        # np.unique's bounds: which zero stands for a run of -0.0
        # and 0.0 is its choice, and numpy versions choose apart.
        distinct = np.unique(outputs[:, j])
        lower[j] = distinct.min()
        upper[j] = distinct.max()

    # The envelope: every sampled output is a genuine neighbour output.
    lower = np.minimum(lower, outputs.min(axis=0))
    upper = np.maximum(upper, outputs.max(axis=0))

    return InferredRange(
        lower=lower, upper=upper, mean=mean, std=std, used_fallback=used_fallback
    )
