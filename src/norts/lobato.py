"""Generalized skewness-kurtosis test for stationary processes.

Tests whether the one-dimensional marginal of a stationary process is
normal by comparing the third central moment and the excess of the fourth
over 3*mu_2^2 against zero, each studentized by a long-run variance sum
over the full lag range.  The statistic is asymptotically chi-square with
2 degrees of freedom under the null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import chi2_sf
from .errors import InvalidInputError, NumericDegeneracyError
from .series import as_series, autocovariances, require_test_length

__all__ = ["LobatoResult", "fk_hat", "lobato_test"]


@dataclass(frozen=True)
class LobatoResult:
    """Outcome of :func:`lobato_test`; ``statistic`` is the sum of both terms."""

    statistic: float
    df: int
    p_value: float
    skewness_term: float
    kurtosis_term: float


def _fk(g: np.ndarray, k: int) -> float:
    # t and -t contribute equally; gamma(n-t) for t=1..n-1 is g reversed
    tail = g[1:]
    comp = tail[::-1]
    return float(g[0] ** k + 2.0 * np.sum(tail * (tail + comp) ** (k - 1)))


def fk_hat(s, k: int) -> float:
    """Long-run studentization sum for the k-th moment condition, k in {3, 4}.

    Sums gamma(t) * (gamma(t) + gamma(n - |t|))^(k-1) over t = 1-n .. n-1,
    reading the out-of-range index gamma(n) as zero, so the t = 0 term is
    gamma(0)^k.
    """
    s = as_series(s)
    k = int(k)
    if k not in (3, 4):
        raise InvalidInputError(f"moment order must be 3 or 4, got {k}")
    require_test_length(s)
    return _fk(autocovariances(s), k)


def lobato_test(s) -> LobatoResult:
    """Skewness-kurtosis normality test with long-run variance correction.

    Raises
    ------
    InvalidInputError
        If the series is shorter than 10 points or has zero variance.
    NumericDegeneracyError
        If a studentization sum comes out non-positive (possible in small
        samples); the sign is surfaced rather than clamped because a silent
        fix would corrupt the chi-square calibration.
    """
    s = as_series(s)
    require_test_length(s)
    d = s.values - np.mean(s.values)
    mu2 = float(np.mean(d**2))
    if mu2 <= 0.0:
        raise InvalidInputError("series has zero variance")
    mu3 = float(np.mean(d**3))
    mu4 = float(np.mean(d**4))
    # one autocovariance sequence serves both studentization sums
    g = autocovariances(s)
    f3 = _fk(g, 3)
    f4 = _fk(g, 4)
    if f3 <= 0.0 or f4 <= 0.0:
        raise NumericDegeneracyError(
            f"non-positive studentization sum (F3={f3:.6g}, F4={f4:.6g})"
        )
    n = len(s)
    skew_term = n * mu3**2 / (6.0 * f3)
    kurt_term = n * (mu4 - 3.0 * mu2**2) ** 2 / (24.0 * f4)
    stat = skew_term + kurt_term
    return LobatoResult(
        statistic=stat,
        df=2,
        p_value=chi2_sf(stat, 2),
        skewness_term=skew_term,
        kurtosis_term=kurt_term,
    )
