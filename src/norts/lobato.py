"""Generalized skewness-kurtosis test for stationary processes.

Tests whether the one-dimensional marginal of a stationary process is
normal by comparing the third central moment and the excess of the fourth
over 3*mu_2^2 against zero, each studentized by a long-run variance sum
over the full lag range.  The statistic is asymptotically chi-square with
2 degrees of freedom under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericDegeneracyError, _caught, _one_result
from .dist import chi2_sf
from .series import MIN_TEST_LENGTH, _lag_sums, _long_enough, _normalized, _spread_exponents
from .series import as_series, autocovariances

__all__ = ["LobatoResult", "fk_hat", "lobato_test"]


@dataclass(frozen=True)
class LobatoResult:
    """Outcome of :func:`lobato_test`; ``statistic`` is the sum of both terms."""

    statistic: float
    df: int
    p_value: float
    skewness_term: float
    kurtosis_term: float


def _fk(g: np.ndarray, k: int) -> np.ndarray:
    """Studentization sum per row of a 2-d array of autocovariance sequences."""
    # t and -t contribute equally; gamma(n-t) for t=1..n-1 is g reversed
    tail = g[:, 1:]
    pair = tail + tail[:, ::-1]
    # powers as products (see _moments), so that scaling by 2**j stays exact;
    # gamma(0)**k per row in Python floats: the same products done on arrays
    # cost a Monte-Carlo cell ~250 more minor page faults, as glibc then
    # trimmed the heap between cells
    power = pair * pair if k == 3 else pair * pair * pair
    head = [g0 * g0 * (g0 if k == 3 else g0 * g0) for g0 in g[:, 0].tolist()]
    return np.array(head) + 2.0 * np.sum(tail * power, axis=1)


def fk_hat(s, k: int) -> float:
    """Long-run studentization sum for the k-th moment condition, k in {3, 4}.

    Sums gamma(t) * (gamma(t) + gamma(n - |t|))^(k-1) over t = 1-n .. n-1,
    reading the out-of-range index gamma(n) as zero, so the t = 0 term is
    gamma(0)^k.
    """
    s = _long_enough(s)
    k = int(k)
    if k not in (3, 4):
        raise InvalidInputError(f"moment order must be 3 or 4, got {k}")
    return float(_fk(autocovariances(s)[None, :], k)[0])


def _lobato_rows(block: np.ndarray) -> list:
    """:func:`lobato_test` on each row of a 2-d array of finite values: the
    row's :class:`LobatoResult`, or the :class:`NortsError` it raises.  Each
    row is scaled as the input gate scales a series, and a row the gate
    rejects (too short, or of zero variance) gets the gate's error."""
    n = block.shape[1]
    if n < MIN_TEST_LENGTH:
        return [_caught(_normalized, row) for row in block]
    half, k = _spread_exponents(block)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.ldexp(block, -k[:, None])
        d = x - x.mean(axis=1, keepdims=True)
        mu2, mu3, mu4 = _moments(d)
        # one autocovariance sequence per row serves both studentization sums
        g = _lag_sums(d, n - 1) / n
        f3, f4 = _fk(g, 3), _fk(g, 4)
        # squares as products, as in _moments
        excess = mu4 - 3.0 * (mu2 * mu2)
        skew = n * (mu3 * mu3) / (6.0 * f3)
        kurt = n * (excess * excess) / (24.0 * f4)
        stat = skew + kurt
        # a non-positive sum gives a negative statistic, which chi2_sf rejects
        p = chi2_sf(np.where((f3 > 0.0) & (f4 > 0.0), stat, np.nan), 2)
    columns = (f3.tolist(), f4.tolist(), stat.tolist(), p.tolist(), skew.tolist(), kurt.tolist())
    out = [_result(*row) for row in zip(*columns)]
    for i in np.flatnonzero(half == 0.0).tolist():
        out[i] = _caught(_normalized, block[i])
    return out


def _moments(d: np.ndarray):
    """Second, third and fourth moments per row of centred data, as products:
    IEEE products round the same on every CPU, while numpy's array power
    runs SIMD code chosen by the CPU and can differ in the last bit."""
    d2 = d * d
    return d2.mean(axis=1), (d2 * d).mean(axis=1), (d2 * d2).mean(axis=1)


def _result(f3: float, f4: float, stat: float, p: float, skew: float, kurt: float):
    """The :class:`LobatoResult` of one row of :func:`_lobato_rows`, or the
    :class:`NumericDegeneracyError` :func:`lobato_test` raises on it."""
    if f3 <= 0.0 or f4 <= 0.0:
        return NumericDegeneracyError(f"non-positive studentization sum (F3={f3:.6g}, F4={f4:.6g})")
    if not math.isfinite(stat):
        return NumericDegeneracyError("the statistic is not finite")
    return LobatoResult(stat, 2, p, skew, kurt)


def lobato_test(s) -> LobatoResult:
    """Skewness-kurtosis normality test with long-run variance correction.

    Raises
    ------
    InvalidInputError
        If the series is shorter than 10 points or has zero variance.
    NumericDegeneracyError
        If a studentization sum comes out non-positive (possible in small
        samples); the sign is surfaced rather than clamped because a silent
        fix would corrupt the chi-square calibration.  The series is first
        scaled to unit spread by an exact power of two, so the moments
        cannot overflow or underflow at any scale of the data.
    """
    return _one_result(_lobato_rows(as_series(s).values[None]))
