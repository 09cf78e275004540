"""Series container, sample-statistic estimators and process simulators.

All moment estimators use divisor ``n`` (not ``n - 1``): the long-run
covariance sums consumed by the test modules mix autocovariances at
complementary lags and are stated for the divisor-``n`` convention.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .dist import InnovationLaw, sample
from .errors import InvalidInputError, InvalidSpecError
from .rng import RngStream

__all__ = [
    "Series",
    "as_series",
    "read_series_csv",
    "sample_central_moment",
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


def require_test_length(s: Series, minimum: int = MIN_TEST_LENGTH) -> None:
    if len(s) < minimum:
        raise InvalidInputError(f"test requires at least {minimum} observations, got {len(s)}")


def read_series_csv(path) -> Series:
    """Read a one-column CSV of reals; an optional header row is skipped.

    Non-numeric cells (outside a first-line header) and multi-column rows
    are rejected with the offending line number.
    """
    values = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            if len(cells) > 1:
                raise InvalidInputError(f"{path}: line {lineno}: expected a single column, got {len(cells)}")
            try:
                values.append(float(cells[0]))
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header row
                raise InvalidInputError(f"{path}: line {lineno}: non-numeric value {cells[0]!r}") from None
    if not values:
        raise InvalidInputError(f"{path}: no numeric data found")
    return Series(np.array(values))


# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------

def sample_central_moment(s, k: int) -> float:
    """k-th sample central moment with divisor n, k >= 2."""
    s = as_series(s)
    k = int(k)
    if k < 2:
        raise InvalidInputError(f"central moment order must be >= 2, got {k}")
    d = s.values - np.mean(s.values)
    return float(np.mean(d**k))


def autocovariances(s, max_lag: int | None = None) -> np.ndarray:
    """All sample autocovariances for lags 0..max_lag (default n-1)."""
    s = as_series(s)
    n = len(s)
    if max_lag is None:
        max_lag = n - 1
    if max_lag < 0 or max_lag >= n:
        raise InvalidInputError(f"max_lag must satisfy 0 <= max_lag < n, got {max_lag}")
    d = s.values - np.mean(s.values)
    full = np.correlate(d, d, mode="full")
    return full[n - 1 : n + max_lag] / n


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
    eps = sample(spec.innovation, rng, size=burn_in + n)
    b = np.concatenate(([1.0], spec.ma))
    a = np.concatenate(([1.0], [-c for c in spec.ar]))
    x = lfilter(b, a, eps)
    return Series(x[burn_in:])


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
                stacklevel=2,
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
