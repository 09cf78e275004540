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
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import InvalidInputError, NumericDegeneracyError
from .rng import RngStream
from .series import _filter_in_place, _normalized, as_series, autocovariances

__all__ = [
    "SieveConfig",
    "VavraResult",
    "anderson_darling",
    "default_max_order",
    "fit_ar_sieve",
    "vavra_test",
]

_REDRAW_ATTEMPTS = 10
# Regenerated points discarded before each bootstrap path.
_BURN_IN = 100


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
    bootstrap: str = "normal"

    def __post_init__(self):
        if int(self.replications) < 1:
            raise InvalidInputError("replications must be positive")
        if int(self.replications) < 100:
            warnings.warn(
                "fewer than 100 bootstrap replications give a coarse p-value",
                stacklevel=3,
            )
        if self.max_order is not None and int(self.max_order) < 0:
            raise InvalidInputError("max_order must be non-negative")
        if self.bootstrap not in ("normal", "residuals"):
            raise InvalidInputError("bootstrap must be 'normal' or 'residuals'")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(
            self, "max_order", None if self.max_order is None else int(self.max_order)
        )


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
    CDF distance is evaluated from each point's smaller normal tail
    probability (see :func:`_ad_rows`).
    """
    x, _ = _normalized(s)
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


# Elements per chunk of _ad_rows: its three chunk-sized buffers stay in L2.
_AD_CHUNK = 1 << 16
_TINY = np.finfo(float).tiny


def _ad_rows(x: np.ndarray) -> np.ndarray:
    """Anderson-Darling statistic per row of a 2-d array (nan where degenerate).

    With z sorted, the closed form sums (2i - 1) [log F(z_i) + log F(-z_(n+1-i))]
    over i.  Each point's smaller tail q = F(-|z_i|) gives both logs:
    log q, and log(1 - q) with 1 - q >= 1/2 rounded by at most 2**-53.  So
    the sum is n sum(log q + log(1 - q)) plus sum (2i - 1 - n) sign(z_i)
    (log(1 - q) - log q), with one normal tail probability per point.  Where
    q underflows to a subnormal or 0 (|z| past ~37.5, reachable only for n
    above ~1400), log q comes from ``log_ndtr``.  numpy's ``log`` runs SIMD
    code chosen by the CPU, so A can differ in its last bits between CPUs.
    Rows are scored in chunks of about ``_AD_CHUNK`` elements, each copied
    C-contiguous whatever the layout of ``x``, which does not change a bit.
    """
    rows, n = x.shape
    weights = 2.0 * np.arange(1, n + 1) - 1.0 - n
    step = max(1, _AD_CHUNK // n)
    return np.concatenate([_ad_chunk(x[i : i + step], weights) for i in range(0, rows, step)])


def _ad_chunk(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`_ad_rows` of a few rows, in three buffers the size of ``x``."""
    n = x.shape[1]
    z = np.array(x, order="C")
    z -= z.mean(axis=1, keepdims=True)
    q = np.square(z)
    g0 = q.mean(axis=1, keepdims=True)
    lp = np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= np.sqrt(g0)
        z.sort(axis=1)
        ndtr(np.negative(np.abs(z, out=q), out=q), out=q)
        np.log(np.subtract(1.0, q, out=lp), out=lp)
        # the sorted rows' largest |z| sit at their ends
        small = q < _TINY if (q[:, [0, -1]] < _TINY).any() else None
        np.log(q, out=q)
        if small is not None:
            q[small] = log_ndtr(-np.abs(z[small]))
        total = lp.sum(axis=1) + q.sum(axis=1)
        lp -= q
        np.copysign(lp, z, out=lp)
        lp *= weights
        out = -n - total - lp.sum(axis=1) / n
    out[~np.isfinite(out) | (g0 <= 0).ravel()] = np.nan
    return out


def vavra_test(s, cfg: SieveConfig) -> VavraResult:
    """Sieve-bootstrap Anderson-Darling normality test.

    Replicate r draws its innovations from sub-stream r of the configured
    seed.  The replicates are split evenly into row blocks of at most
    ``rng._BLOCK_ELEMENTS`` uniforms (two blocks of 500 at n = 1000 and
    1000 replicates), each a batched draw that equals those sub-streams bit
    for bit, so the result does not depend on how the work is split.  A
    block is one time-major (100 + n, rows) array, reused from block to
    block: the uniforms are drawn and turned into innovations
    ``rng._CHUNK_ELEMENTS`` at a time and copied in transposed, the AR recursion runs down it in
    place (:func:`series._filter_in_place`), and :func:`_ad_rows` scores its
    last n rows.  So a call holds that array (4.4 MB at n = 1000) and a few
    chunk-sized buffers.

    The in-place recursion skips two steps of :func:`series._arma_filter`:
    its second run with the MA products x_t * 0, and at order 0 its
    ``+ 0.0``.  Both change only the sign of an exact zero and the values
    of rows that are not finite, and neither changes a score: a row with a
    value that is not finite scores NaN either way, and the sign of a zero
    reaches a score only as a zero term of a sum.

    A degenerate replicate is redrawn up to 10 times from the continuation
    of its own sub-stream (redraw d takes its uniforms from d * (100 + n)
    on), each round's redraws in one batch, and dropped from the count
    thereafter.
    """
    x, _ = _normalized(s)
    ad_obs = anderson_darling(x)
    n = x.size
    max_order = cfg.max_order if cfg.max_order is not None else default_max_order(n)
    order, phi, resid = fit_ar_sieve(x, max_order)
    sigma_e = float(np.sqrt(np.mean(resid**2)))
    if sigma_e <= 0.0:
        raise NumericDegeneracyError("sieve residuals have zero variance")

    total_len = _BURN_IN + n

    def innovations(u: np.ndarray) -> np.ndarray:
        """Innovations from uniforms of any shape; overwrites ``u``."""
        if cfg.bootstrap == "normal":
            ndtri(u, out=u)
            u *= sigma_e
            return u
        idx = np.minimum((u * resid.size).astype(np.int64), resid.size - 1)
        return resid[idx]

    def scores(replicates, draw: int) -> np.ndarray:
        """Statistics of ``replicates`` from uniforms ``draw * total_len`` on."""
        blocks = cfg.seed._uniform_blocks(
            replicates, total_len, start=draw * total_len, transform=innovations
        )
        return np.concatenate(
            [_ad_rows(_filter_in_place(block, phi)[_BURN_IN:].T) for _, block in blocks]
        )

    stats = scores(range(cfg.replications), 0)
    for draw in range(1, _REDRAW_ATTEMPTS + 1):
        redo = np.flatnonzero(np.isnan(stats)).tolist()
        if redo:
            stats[redo] = scores(redo, draw)

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
