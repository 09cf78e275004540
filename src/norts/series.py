"""Series container, sample autocovariances and process simulators.

The autocovariances use divisor ``n`` (not ``n - 1``): the long-run
covariance sums consumed by the test modules mix autocovariances at
complementary lags and are stated for the divisor-``n`` convention.  Every
lag product in the package, those of lobato's blocks and of kpss's
long-run variance included, comes from one routine, ``_lag_sums``.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dist import InnovationLaw, sample
from .errors import InvalidInputError, InvalidSpecError
from .rng import RngStream

__all__ = [
    "Series",
    "as_series",
    "read_series_csv",
    "autocovariances",
    "ArmaSpec",
    "GarchSpec",
    "simulate_arma",
    "simulate_garch",
]

MIN_TEST_LENGTH = 10


@dataclass(frozen=True, eq=False)
class Series:
    """Ordered, equally spaced real observations.

    Values are validated to be finite and stored in a read-only float64
    array, so instances are safe to share across threads.  ``len`` gives
    the number of observations.  Equality is identity-based; compare
    ``values`` explicitly when needed.
    """

    values: np.ndarray

    def __post_init__(self):
        if np.ndim(self.values) > 1:
            raise InvalidInputError("series values must be one-dimensional")
        values = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if values.size == 0:
            raise InvalidInputError("series must contain at least one observation")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise InvalidInputError(f"series contains a non-finite value at index {bad}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def as_series(data) -> Series:
    """Coerce an array-like (or pass through a Series) into :class:`Series`."""
    if isinstance(data, Series):
        return data
    return Series(np.asarray(data, dtype=float))


def _long_enough(s, minimum: int = MIN_TEST_LENGTH) -> Series:
    """Coerce ``s`` and enforce a test's minimum length."""
    s = as_series(s)
    if len(s) < minimum:
        raise InvalidInputError(f"test requires at least {minimum} observations, got {len(s)}")
    return s


def _spread_exponents(x: np.ndarray):
    """Half the spread of ``x`` along its last axis, and the binary exponent
    k of each half spread: 2**-k * x spans [1, 2).  Halving before the
    subtraction keeps the spread from overflowing."""
    half = x.max(axis=-1) / 2 - x.min(axis=-1) / 2
    return half, np.frexp(half)[1]


def _normalized(s, minimum: int = MIN_TEST_LENGTH) -> tuple[np.ndarray, int]:
    """The input gate of every test: the values of ``s`` times 2**-k, with k
    chosen so that they span [1, 2), and k.

    Multiplying by a power of two changes only exponents, so it is exact
    (short of values some 2**1021 times smaller than the spread, which round
    to subnormal numbers), and every test statistic is scale-invariant: the
    tests run at unit scale whatever the scale of the data, and inputs that
    differ by a power-of-two factor give bit-identical results.  Raises
    :class:`InvalidInputError` for a series shorter than ``minimum`` or with
    zero variance.
    """
    x = _long_enough(s, minimum).values
    half, k = _spread_exponents(x)
    if half == 0.0:
        raise InvalidInputError("series has zero variance")
    return np.ldexp(x, -k), int(k)


def read_series_csv(path) -> Series:
    """Read a one-column CSV of reals; an optional header row is skipped.

    The file is read as UTF-8, with or without a byte-order mark.  A first
    line that is not a number is a header when the next non-empty line is
    one.  A file that cannot be read or decoded, non-numeric cells (outside
    such a header) and multi-column rows are rejected, the last two with the
    offending line number.
    """
    values = []
    header = None  # a first line that is not a number, until the next line tells
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        cells = [c.strip() for c in row if c.strip() != ""]
        if not cells:
            continue
        if len(cells) > 1:
            raise InvalidInputError(f"{path}: line {lineno}: expected a single column, got {len(cells)}")
        try:
            values.append(float(cells[0]))
        except ValueError:
            if lineno == 1:
                header = cells[0]
                continue
            if header is not None and not values:
                lineno, cells = 1, [header]
            raise InvalidInputError(f"{path}: line {lineno}: non-numeric value {cells[0]!r}") from None
    if not values:
        what = "no numeric data found" if header is None else f"line 1: non-numeric value {header!r}"
        raise InvalidInputError(f"{path}: {what}")
    return Series(np.array(values))


# ---------------------------------------------------------------------------
# Sample autocovariances
# ---------------------------------------------------------------------------

# On a series longer than this, fewer lags than this take one dot product
# each instead of the O(n^2) full correlation.
_FEW_LAGS = 64


def autocovariances(s, max_lag: int | None = None) -> np.ndarray:
    """All sample autocovariances for lags 0..max_lag (default n-1)."""
    s = as_series(s)
    n = len(s)
    if max_lag is None:
        max_lag = n - 1
    if max_lag < 0 or max_lag >= n:
        raise InvalidInputError(f"max_lag must satisfy 0 <= max_lag < n, got {max_lag}")
    d = s.values - np.mean(s.values)
    return _lag_sums(d[None], max_lag)[0] / n


def _lag_sums(d: np.ndarray, max_lag: int) -> np.ndarray:
    """The sums of d[t + h] * d[t] over t for h = 0..max_lag, per row of the
    demeaned 2-d ``d``, with no divisor.  ``np.correlate`` takes rows of
    n <= 11 and a single row (unless it needs fewer than ``_FEW_LAGS`` lags
    of more points); otherwise one stacked (R,1,n-h) @ (R,n-h,1) matmul per
    lag runs the BLAS ddot that correlate runs, bit for bit.  Below n = 12
    the two differ in the last bit of lag 0 on about a quarter of rows."""
    rows, n = d.shape
    if n <= 11 or (rows == 1 and not max_lag < _FEW_LAGS < n):
        return np.array([np.correlate(row, row, mode="full")[n - 1 : n + max_lag] for row in d])
    sums = np.empty((rows, max_lag + 1))
    for h in range(max_lag + 1):
        sums[:, h] = (d[:, None, h:] @ d[:, : n - h, None])[:, 0, 0]
    return sums


# ---------------------------------------------------------------------------
# Process specifications and simulators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArmaSpec:
    """ARMA(p, q) specification with configurable innovation law.

    The AR polynomial 1 - sum(phi_i z^i) must have all roots strictly
    outside the unit circle.
    """

    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    innovation: InnovationLaw = field(default_factory=InnovationLaw.normal)

    def __post_init__(self):
        ar = tuple(float(c) for c in self.ar)
        ma = tuple(float(c) for c in self.ma)
        if any(not np.isfinite(c) for c in ar + ma):
            raise InvalidSpecError("ARMA coefficients must be finite")
        if ar:
            # numpy expects highest-degree coefficient first
            roots = np.roots(np.concatenate(([-c for c in ar[::-1]], [1.0])))
            if roots.size and np.min(np.abs(roots)) <= 1.0:
                raise InvalidSpecError(
                    f"AR polynomial has a root inside or on the unit circle (min |root| = {np.min(np.abs(roots)):.6g})"
                )
        object.__setattr__(self, "ar", ar)
        object.__setattr__(self, "ma", ma)


def simulate_arma(spec: ArmaSpec, n: int, burn_in: int, rng: RngStream) -> Series:
    """Simulate an ARMA path started from zeros, discarding ``burn_in`` points.

    The recursion X_t = sum(phi_i X_{t-i}) + eps_t + sum(theta_j eps_{t-j})
    runs for burn_in + n steps with zero initial state; the last n points
    are returned.
    """
    n = int(n)
    burn_in = int(burn_in)
    if n < 1:
        raise InvalidInputError("series length must be positive")
    if burn_in < 0:
        raise InvalidInputError("burn-in must be non-negative")
    x = _arma_filter(sample(spec.innovation, rng, size=burn_in + n), spec.ar, spec.ma)
    return Series(x[burn_in:])


def _arma_filter(eps: np.ndarray, ar=(), ma=()) -> np.ndarray:
    """The recursion X_t = sum(ar_i X_{t-i}) + eps_t + sum(ma_j eps_{t-j})
    from zero state along the last axis of ``eps``.

    The result equals scipy's ``lfilter((1, *ma), (1, *-ar), eps, axis=-1)``
    element for element (an exact zero may differ in sign), because it does
    lfilter's operations in lfilter's order.  With no AR terms that is
    lfilter's own path: one ``np.convolve`` per series.  Otherwise it is
    lfilter's transposed direct form II, with m = max(p, q) delays z (zero
    at the start) and both coefficient lists padded with zeros to length m.
    At each step t:

        y_t = z_0 + x_t
        z_i <- (z_{i+1} + theta_{i+1} x_t) + phi_{i+1} y_t    (i < m - 1)
        z_{m-1} <- theta_m x_t + phi_m y_t

    lfilter's ``- a_i y_t`` with a = (1, -phi) is exactly ``+ phi_i y_t``.
    A pure AR filter skips the products theta x_t = x_t * 0.  They can only
    flip the sign of an exact zero, unless x_t is not finite and x_t * 0 is
    NaN.  So when some output is not finite, the recursion runs again with
    them.
    """
    eps = np.asarray(eps, dtype=float)
    p, q = len(ar), len(ma)
    if p == q == 0:
        return eps + 0.0  # np.convolve((1.0,), e) is 0.0 + 1.0 * e
    if p == 0:
        b = np.array((1.0, *ma))
        return np.apply_along_axis(lambda e: np.convolve(b, e)[: e.size], -1, eps)
    m = max(p, q)
    phi = np.zeros(m)
    phi[:p] = ar
    theta = np.zeros(m)
    theta[:q] = ma
    run = _filter_one if eps.ndim == 1 else _filter_rows
    with np.errstate(all="ignore"):  # as in lfilter, inf and NaN pass silently
        y = run(eps, phi, theta if q else None)
        # a value that is not finite never turns finite again along a series
        if q or np.isfinite(y[..., -1:]).all():
            return y
        return run(eps, phi, theta)


def _filter_one(x: np.ndarray, phi: np.ndarray, theta) -> np.ndarray:
    """:func:`_arma_filter` on one series in Python floats, term for term as
    :func:`_filter_rows` does it; no MA terms when ``theta`` is None."""
    xs = x.tolist()
    n, m = len(xs), phi.size
    acc = [0.0] * (n + m)
    phi = phi.tolist()
    if theta is None:
        earlier = list(enumerate(phi[:-1], 1))
        for t, xt in enumerate(xs):
            y = acc[t] = acc[t] + xt
            acc[t + m] = phi[-1] * y
            for j, f in earlier:
                acc[t + j] += f * y
    else:
        theta = theta.tolist()
        earlier = list(zip(range(1, m), theta, phi))
        for t, xt in enumerate(xs):
            y = acc[t] = acc[t] + xt
            acc[t + m] = theta[-1] * xt + phi[-1] * y
            for j, th, f in earlier:
                acc[t + j] = (acc[t + j] + th * xt) + f * y
    return np.array(acc[:n])


def _filter_rows(eps: np.ndarray, phi: np.ndarray, theta) -> np.ndarray:
    """:func:`_arma_filter` on every series along the last axis at once.

    Each step is a few array operations across the series.  Row s of
    ``acc`` gathers the terms of z_0 at step s, the oldest first, as
    lfilter's delays pass them down; the row then becomes y_s in place.  A
    row starts from -0.0, which leaves the first term as it is, except the
    first m rows, which start from lfilter's zero state.
    """
    x = eps.reshape(int(np.prod(eps.shape[:-1])), eps.shape[-1])
    rows, n = x.shape
    m = phi.size
    acc = np.zeros((n + m, rows))
    acc[m:] = -0.0
    buf = np.empty((m, rows))
    phi_col = phi[:, None]
    theta_col = None if theta is None else theta[:, None]
    for t, xt in enumerate(x.T):
        yt, window = acc[t], acc[t + 1 : t + 1 + m]
        yt += xt
        if theta_col is not None:
            np.multiply(theta_col, xt, out=buf)
            window += buf
        np.multiply(phi_col, yt, out=buf)
        window += buf
    return np.ascontiguousarray(acc[:n].T).reshape(eps.shape)


@dataclass(frozen=True)
class GarchSpec:
    """GARCH(p, q) specification driven by standard normal innovations.

    sigma_t^2 = alpha0 + sum(alpha_i a_{t-i}^2) + sum(beta_j sigma_{t-j}^2)
    with shocks a_t = sigma_t eps_t and X_t = mu + a_t.  Stationarity
    requires sum(alpha) + sum(beta) < 1.  alpha0 = 0 gives a degenerate
    process and is replaced by 1e-6 with a warning.
    """

    alpha0: float
    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()
    mu: float = 0.0

    def __post_init__(self):
        alpha0 = float(self.alpha0)
        alpha = tuple(float(c) for c in self.alpha)
        beta = tuple(float(c) for c in self.beta)
        if alpha0 == 0.0:
            warnings.warn(
                "alpha0 = 0 gives a degenerate GARCH process; substituting alpha0 = 1e-6",
                stacklevel=3,
            )
            alpha0 = 1e-6
        if alpha0 < 0 or not np.isfinite(alpha0):
            raise InvalidSpecError("alpha0 must be positive")
        if any(c < 0 or not np.isfinite(c) for c in alpha + beta):
            raise InvalidSpecError("GARCH coefficients must be non-negative")
        if sum(alpha) + sum(beta) >= 1.0:
            raise InvalidSpecError(
                f"GARCH stationarity requires sum(alpha) + sum(beta) < 1, got {sum(alpha) + sum(beta):.6g}"
            )
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def unconditional_variance(self) -> float:
        return self.alpha0 / (1.0 - sum(self.alpha) - sum(self.beta))


def simulate_garch(spec: GarchSpec, n: int, burn_in: int, rng: RngStream) -> Series:
    """Simulate a GARCH path, variance recursion seeded at its stationary level."""
    n = int(n)
    burn_in = int(burn_in)
    if n < 1:
        raise InvalidInputError("series length must be positive")
    if burn_in < 0:
        raise InvalidInputError("burn-in must be non-negative")
    p, q = len(spec.alpha), len(spec.beta)
    pad = max(p, q, 1)
    total = burn_in + n
    v0 = spec.unconditional_variance
    z = sample(InnovationLaw.normal(), rng, size=total)
    sig2 = np.full(pad + total, v0)
    shock2 = np.full(pad + total, v0)
    x = np.empty(total)
    alpha = np.array(spec.alpha)
    beta = np.array(spec.beta)
    for t in range(total):
        i = pad + t
        s2 = spec.alpha0
        if p:
            s2 += alpha @ shock2[i - p : i][::-1]
        if q:
            s2 += beta @ sig2[i - q : i][::-1]
        sig2[i] = s2
        a = np.sqrt(s2) * z[t]
        shock2[i] = a * a
        x[t] = spec.mu + a
    return Series(x[burn_in:])
