"""Stationarity pre-tests: Ljung-Box, augmented Dickey-Fuller, KPSS.

The Dickey-Fuller and KPSS p-values come from linear interpolation in the
standard published critical-value tables shipped with the package; values
falling outside a table are clamped to its edge and flagged as bounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dist import chi2_sf
from .errors import InvalidInputError, NumericDegeneracyError
from .series import _lag_sums, _normalized, autocovariances

__all__ = ["UnitRootReport", "ljung_box", "adf_test", "kpss_test"]

# Shortest series adf_test and kpss_test accept.
MIN_UNIT_ROOT_LENGTH = 30


@dataclass(frozen=True)
class UnitRootReport:
    """Stationarity-check outcome: the statistic, its lag order (the
    truncation lag for KPSS), the p-value and whether that p-value was
    clamped at a critical-value table edge.  Deciding at a level is left to
    the caller."""

    statistic: float
    lag_order: int
    p_value: float
    bounded: bool


def _load_tables() -> dict:
    with resources.files("norts.data").joinpath("critical_values.json").open() as fh:
        return json.load(fh)


_TABLES = _load_tables()


def ljung_box(s, lags: int = 10) -> UnitRootReport:
    """Portmanteau test of the first ``lags`` autocorrelations being zero."""
    x, _ = _normalized(s, minimum=1)
    lags = int(lags)
    n = x.size
    if lags < 1:
        raise InvalidInputError("number of lags must be positive")
    if lags >= n / 2:
        raise InvalidInputError(f"lags must be below n/2, got lags={lags}, n={n}")
    gamma = autocovariances(x, lags)
    rho = gamma[1:] / gamma[0]
    q = n * (n + 2.0) * np.sum(rho**2 / (n - np.arange(1, lags + 1)))
    return UnitRootReport(
        statistic=float(q), lag_order=lags, p_value=float(chi2_sf(q, lags)), bounded=False
    )


def _interp_bounded(stat: float, cvs, probs) -> tuple[float, bool]:
    cvs = np.asarray(cvs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    bounded = stat < cvs[0] or stat > cvs[-1]
    return float(np.interp(stat, cvs, probs)), bool(bounded)


def adf_test(s) -> UnitRootReport:
    """Augmented Dickey-Fuller unit-root test, trend-included variant.

    Regresses the first difference on an intercept, a linear trend, the
    lagged level and k = floor((n-1)^(1/3)) lagged differences, and refers
    the t-statistic of the lagged level to the trend-case Dickey-Fuller
    table.  Small p-values speak against a unit root, i.e. for stationarity.
    The statistic comes from R of one Householder QR of the columns
    intercept, centred trend, lagged differences, centred lagged level and
    response, each scaled to unit norm (none of which changes it):
    t = R[-2, -1] sign(R[-2, -2]) sqrt(rows - 3 - k) / |R[-1, -1]|.  A
    regressor pivot |R_jj| at most 1e-8 times the largest (as for a periodic
    series) means a nearly collinear design; it and an exact fit raise
    :class:`NumericDegeneracyError`.
    """
    x, _ = _normalized(s, MIN_UNIT_ROOT_LENGTH)
    n = x.size
    d = np.diff(x)
    k = int(np.floor((n - 1) ** (1.0 / 3.0)))
    rows = n - 1 - k
    cols = np.empty((rows, 4 + k))
    cols[:, 0] = 1.0
    cols[:, 1] = np.arange(rows) - (rows - 1) / 2.0  # centred time index of the response
    for j in range(1, k + 1):
        cols[:, 1 + j] = d[k - j : n - 1 - j]
    cols[:, -2] = x[k : n - 1] - x[k : n - 1].mean()  # lagged level
    cols[:, -1] = d[k:]
    norms = np.linalg.norm(cols, axis=0)
    r = np.linalg.qr(cols / np.where(norms > 0.0, norms, 1.0), mode="r")
    pivots = np.abs(np.diag(r))
    if pivots[:-1].min() <= 1e-8 * pivots[:-1].max():
        raise NumericDegeneracyError("Dickey-Fuller regression design is nearly collinear")
    if pivots[-1] == 0.0:
        raise NumericDegeneracyError("Dickey-Fuller regression fits the differences exactly")
    stat = float(r[-2, -1] * np.sign(r[-2, -2]) * np.sqrt(rows - 3 - k) / pivots[-1])

    table = _TABLES["dickey_fuller_trend"]
    sizes = np.asarray(table["sample_sizes"], dtype=float)
    grid = np.asarray(table["statistics"], dtype=float)
    cvs = [float(np.interp(n, sizes, grid[:, j])) for j in range(grid.shape[1])]
    p, bounded = _interp_bounded(stat, cvs, table["probabilities"])
    return UnitRootReport(statistic=stat, lag_order=k, p_value=p, bounded=bounded)


def kpss_test(s) -> UnitRootReport:
    """KPSS level-stationarity test (null hypothesis: stationary).

    The numerator uses partial sums of the demeaned data; the denominator
    is a Bartlett long-run variance with truncation floor(4 (n/100)^(1/4)).
    Small p-values speak against stationarity.
    """
    x, _ = _normalized(s, MIN_UNIT_ROOT_LENGTH)
    n = x.size
    e = x - np.mean(x)
    cumsums = np.cumsum(e)
    eta = float(np.sum(cumsums**2)) / n**2
    lag = int(np.floor(4.0 * (n / 100.0) ** 0.25))
    sums = _lag_sums(e[None], lag)[0].tolist()
    lrv = sums[0] / n
    for i in range(1, lag + 1):
        w = 1.0 - i / (lag + 1.0)
        lrv += 2.0 * w * sums[i] / n
    if lrv <= 0.0:
        raise NumericDegeneracyError("long-run variance estimate is non-positive")
    stat = eta / lrv

    table = _TABLES["kpss_level"]
    p, bounded = _interp_bounded(stat, table["statistics"], table["probabilities"])
    return UnitRootReport(statistic=stat, lag_order=lag, p_value=p, bounded=bounded)
