"""Anderson-Darling normality test with an autoregressive sieve bootstrap.

The observed statistic measures the distance between the standardized
empirical marginal and the standard normal CDF.  Its null distribution is
approximated by refitting a finite autoregression to the data and
regenerating the process many times under the normal null; the p-value is
the (add-one corrected) fraction of bootstrap statistics at or above the
observed one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

from .dist import normal_logcdf, normal_logsf
from .errors import InvalidInputError, NumericDegeneracyError
from .rng import RngStream
from .series import as_series, autocovariances, require_test_length

__all__ = [
    "SieveConfig",
    "VavraResult",
    "anderson_darling",
    "default_max_order",
    "fit_ar_sieve",
    "vavra_test",
]

_REDRAW_ATTEMPTS = 10


@dataclass(frozen=True)
class SieveConfig:
    """Configuration for :func:`vavra_test`.

    ``max_order`` of None selects floor(10 * log10(n)) at run time.
    ``bootstrap`` chooses the innovation source for the regenerated paths:
    ``"normal"`` draws from a normal law with the residual variance
    (sampling under the null), ``"residuals"`` resamples the centered
    residuals themselves.
    """

    seed: RngStream
    replications: int = 1000
    max_order: int | None = None
    burn_in: int = 100
    bootstrap: str = "normal"

    def __post_init__(self):
        if int(self.replications) < 1:
            raise InvalidInputError("replications must be positive")
        if int(self.replications) < 100:
            warnings.warn(
                "fewer than 100 bootstrap replications give a coarse p-value",
                stacklevel=2,
            )
        if self.max_order is not None and int(self.max_order) < 0:
            raise InvalidInputError("max_order must be non-negative")
        if int(self.burn_in) < 0:
            raise InvalidInputError("burn-in must be non-negative")
        if self.bootstrap not in ("normal", "residuals"):
            raise InvalidInputError("bootstrap must be 'normal' or 'residuals'")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(
            self, "max_order", None if self.max_order is None else int(self.max_order)
        )
        object.__setattr__(self, "burn_in", int(self.burn_in))


@dataclass(frozen=True)
class VavraResult:
    ad_observed: float
    ad_bootstrap_mean: float
    p_value: float
    ar_order: int
    replications_used: int


def anderson_darling(s) -> float:
    """Anderson-Darling distance of the standardized marginal from N(0, 1).

    The series is standardized by its sample mean and the square root of
    the divisor-n variance, then the classic closed form of the weighted
    CDF distance is evaluated with log-CDF calls for tail stability.
    """
    s = as_series(s)
    require_test_length(s)
    x = s.values
    if np.mean((x - np.mean(x)) ** 2) <= 0.0:
        raise InvalidInputError("series has zero variance")
    return float(_ad_rows(x[None, :])[0])


def default_max_order(n: int) -> int:
    """Default sieve order cap floor(10 * log10(n)), bounded by (n-1)/2."""
    return min(int(np.floor(10.0 * np.log10(n))), (n - 1) // 2)


def _levinson(gamma: np.ndarray, max_order: int):
    """Innovation variances and AR coefficients for all orders 0..max_order.

    Returns (sigma2 array, list of coefficient arrays); orders past a
    numerically invalid step get sigma2 = inf and are skipped by selection.
    """
    sigma2 = np.full(max_order + 1, np.inf)
    coeffs: list[np.ndarray | None] = [np.zeros(0)] + [None] * max_order
    sigma2[0] = gamma[0]
    for p in range(1, max_order + 1):
        prev = coeffs[p - 1]
        if prev is None or not np.isfinite(sigma2[p - 1]) or sigma2[p - 1] <= 0:
            break
        kappa = (gamma[p] - prev @ gamma[1:p][::-1]) / sigma2[p - 1]
        new = np.empty(p)
        new[: p - 1] = prev - kappa * prev[::-1]
        new[p - 1] = kappa
        s2 = sigma2[p - 1] * (1.0 - kappa * kappa)
        if not np.isfinite(s2) or s2 <= 0:
            break
        coeffs[p] = new
        sigma2[p] = s2
    return sigma2, coeffs


def fit_ar_sieve(s, max_order: int):
    """Yule-Walker autoregression with AIC order selection.

    Fits every order 0..max_order on the demeaned data via the Levinson
    recursion on the sample autocovariances, picks the order minimizing
    n*log(sigma2) + 2p, and returns (order, coefficients, residuals).
    Residuals are the one-step prediction errors over the fully observed
    range, re-centered to exact mean zero.
    """
    s = as_series(s)
    max_order = int(max_order)
    if max_order < 0:
        raise InvalidInputError("max_order must be non-negative")
    n = len(s)
    if n <= 2 * max_order:
        raise InvalidInputError(f"series length {n} must exceed twice max_order {max_order}")
    gamma = autocovariances(s, max_order)
    if gamma[0] <= 0.0:
        raise InvalidInputError("series has zero variance")
    sigma2, coeffs = _levinson(gamma, max_order)
    if not np.isfinite(sigma2[0]):
        raise NumericDegeneracyError("autocovariance sequence is not usable")
    aic = np.where(np.isfinite(sigma2), n * np.log(sigma2) + 2.0 * np.arange(max_order + 1), np.inf)
    order = int(np.argmin(aic))
    phi = np.asarray(coeffs[order], dtype=float)
    d = s.values - np.mean(s.values)
    if order == 0:
        resid = d.copy()
    else:
        resid = d[order:] - np.column_stack(
            [d[order - i : n - i] for i in range(1, order + 1)]
        ) @ phi
    resid = resid - resid.mean()
    return order, phi, resid


def _ad_rows(x: np.ndarray) -> np.ndarray:
    """Anderson-Darling statistic per row of a 2-d array (nan where degenerate)."""
    n = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    g0 = np.mean((x - mu) ** 2, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.sort((x - mu) / np.sqrt(g0), axis=1)
        weights = 2.0 * np.arange(1, n + 1) - 1.0
        total = np.sum(weights * (normal_logcdf(z) + normal_logsf(z[:, ::-1])), axis=1)
        out = -n - total / n
    out[~np.isfinite(out)] = np.nan
    out[(g0 <= 0).ravel()] = np.nan
    return out


def vavra_test(s, cfg: SieveConfig) -> VavraResult:
    """Sieve-bootstrap Anderson-Darling normality test.

    Each bootstrap replicate draws its innovations from sub-stream r of
    the configured seed, so the result is deterministic at any degree of
    parallelism.  Degenerate replicates are redrawn up to 10 times and
    dropped from the count thereafter.
    """
    s = as_series(s)
    require_test_length(s)
    n = len(s)
    ad_obs = anderson_darling(s)
    max_order = cfg.max_order if cfg.max_order is not None else default_max_order(n)
    order, phi, resid = fit_ar_sieve(s, max_order)
    sigma_e = float(np.sqrt(np.mean(resid**2)))
    if sigma_e <= 0.0:
        raise NumericDegeneracyError("sieve residuals have zero variance")

    reps = cfg.replications
    total_len = cfg.burn_in + n
    a_coef = np.concatenate(([1.0], -phi))

    def draw_innovations(rng: RngStream) -> np.ndarray:
        u = rng.uniform(total_len)
        if cfg.bootstrap == "normal":
            return sigma_e * ndtri(u)
        idx = np.minimum((u * resid.size).astype(np.int64), resid.size - 1)
        return resid[idx]

    streams = [cfg.seed.substream(r) for r in range(reps)]
    innov = np.empty((reps, total_len))
    for r, rng in enumerate(streams):
        innov[r] = draw_innovations(rng)
    paths = lfilter([1.0], a_coef, innov, axis=1)[:, cfg.burn_in :]
    stats = _ad_rows(paths)

    for r in np.flatnonzero(np.isnan(stats)):
        for _ in range(_REDRAW_ATTEMPTS):
            path = lfilter([1.0], a_coef, draw_innovations(streams[r]))[cfg.burn_in :]
            redone = _ad_rows(path[None, :])[0]
            if np.isfinite(redone):
                stats[r] = redone
                break

    valid = stats[np.isfinite(stats)]
    used = int(valid.size)
    if used == 0:
        raise NumericDegeneracyError("all bootstrap replicates were degenerate")
    count = int(np.sum(valid >= ad_obs))
    return VavraResult(
        ad_observed=ad_obs,
        ad_bootstrap_mean=float(valid.mean()),
        p_value=(1.0 + count) / (1.0 + used),
        ar_order=order,
        replications_used=used,
    )
