"""Characteristic-function normality test for stationary processes.

The empirical characteristic function of the data, evaluated at a small
grid of positive frequencies, is compared with the characteristic function
of a normal law whose parameters are chosen to minimize a long-run-variance
weighted quadratic form.  n times the minimized form is asymptotically
chi-square with r - 2 degrees of freedom, where r is the rank of the
long-run covariance of the moment vector (2N for an N-point grid unless the
data are degenerate).  The minimum is found by a damped Newton search on the
closed-form gradient and Hessian of the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import chi2_sf
from .errors import InvalidInputError, NortsError, NumericDegeneracyError, _caught, _one_result
from .series import MIN_TEST_LENGTH, _long_enough, _normalized, _spread_exponents, as_series

__all__ = [
    "Lambda",
    "ThetaParams",
    "EppsResult",
    "g_vector",
    "g_theta",
    "g_hat",
    "spectral_zero",
    "qn",
    "epps_test",
]

MAX_GRID_SIZE = 8
PINV_RCOND = 1e-10
# Settings of the damped Newton search (see _search).  Damping is
# relative to the Hessian's spectral radius; a step of NEWTON_MAX_STEP moves
# the mean by one sample standard deviation or the variance by a factor e.
NEWTON_MAXITER = 100
NEWTON_RTOL = 1e-14
NEWTON_MIN_DAMPING = 1e-3
NEWTON_MAX_STEP = 1.0


@dataclass(frozen=True)
class Lambda:
    """Nondecreasing grid of N >= 2 strictly positive frequencies."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2:
            raise InvalidInputError("frequency grid needs at least 2 points")
        if any(not np.isfinite(p) or p <= 0 for p in pts):
            raise InvalidInputError("frequencies must be finite and strictly positive")
        if any(pts[i] > pts[i + 1] for i in range(len(pts) - 1)):
            raise InvalidInputError("frequencies must be nondecreasing")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ThetaParams:
    """Normal-law parameters (mean, variance) with variance >= 0.

    A fitted variance reads 0 or inf where it lies outside the double range,
    as for a series whose standard deviation is below 1e-154 or above 1e154.
    """

    mu: float
    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise InvalidInputError("mu must be finite")
        if not self.sigma2 >= 0:
            raise InvalidInputError("sigma2 must be non-negative")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))


@dataclass(frozen=True)
class EppsResult:
    statistic: float
    df: int
    p_value: float
    theta_hat: ThetaParams
    converged: bool


def _grid(g0) -> np.ndarray:
    """The default frequencies 1 / sd and 2 / sd for a variance (or an array
    of variances) g0, along a new last axis."""
    sd = np.sqrt(g0)
    return np.stack((1.0 / sd, 2.0 / sd), axis=-1)


def g_vector(x: float, lam: Lambda) -> np.ndarray:
    """Interleaved [cos(l1 x), sin(l1 x), ..., cos(lN x), sin(lN x)]."""
    return _g_matrix(np.array([float(x)]), lam.points)[0]


def _g_matrix(values: np.ndarray, points) -> np.ndarray:
    """:func:`g_vector` of each value on the grid ``points``, one row per
    value; on a stack of series (..., n) and their grids (..., N), one
    (n, 2N) matrix per series."""
    ang = values[..., :, None] * np.asarray(points)[..., None, :]
    out = np.empty(ang.shape[:-1] + (2 * ang.shape[-1],))
    out[..., 0::2] = np.cos(ang)
    out[..., 1::2] = np.sin(ang)
    return out


def g_theta(theta: ThetaParams, lam: Lambda) -> np.ndarray:
    """Re/Im pairs of the normal characteristic function on the grid."""
    pts = np.asarray(lam.points)
    damp = np.exp(-(pts**2) * theta.sigma2 / 2.0)
    out = np.empty(2 * lam.size)
    out[0::2] = damp * np.cos(pts * theta.mu)
    out[1::2] = damp * np.sin(pts * theta.mu)
    return out


def g_hat(s, lam: Lambda) -> np.ndarray:
    """Sample mean of :func:`g_vector` over the observations."""
    s = as_series(s)
    return _g_matrix(s.values, lam.points).mean(axis=0)


def _long_run(d: np.ndarray) -> np.ndarray:
    # Bartlett-weighted long-run covariance of the (centred) rows of d, or
    # of each matrix of a stack of them, by one matmul per lag
    n = d.shape[-2]
    m = int(np.floor(n ** (2.0 / 5.0)))
    d_t = d.swapaxes(-1, -2)
    mat = d_t @ d
    for i in range(1, m + 1):
        w = 1.0 - i / m
        if w <= 0.0:
            break
        cross = d_t[..., : n - i] @ d[..., i:, :]
        mat += w * (cross + cross.swapaxes(-1, -2))
    return mat / n


def spectral_zero(s, lam: Lambda) -> np.ndarray:
    """Long-run covariance (2 pi times the zero-frequency spectral density)
    of the moment vector process.

    Bartlett weights 1 - i/m with truncation m = floor(n^(2/5)) are applied
    to lag-i cross-products of per-observation deviations from the sample
    moment vector; the result is symmetrized.
    """
    s = _long_enough(s)
    d = _g_matrix(s.values, lam.points)
    d -= d.mean(axis=0)
    return _long_run(d)


def _pinv(mat: np.ndarray):
    """Pseudo-inverse of a symmetric matrix, or of each of a stack of them,
    and the rank it keeps.

    Eigenvalues at or below ``PINV_RCOND`` times the largest magnitude are
    treated as zero.  A stack of full rank is inverted in one matmul, and
    any other one matrix at a time over its kept eigenvectors.
    """
    eig, vecs = np.linalg.eigh(mat)
    size = np.abs(eig)
    keep = size > PINV_RCOND * size.max(axis=-1, keepdims=True)
    if keep.all():
        return (vecs / eig[..., None, :]) @ vecs.swapaxes(-1, -2), keep.sum(axis=-1)
    out = np.empty_like(mat)
    for i in np.ndindex(keep.shape[:-1]):
        kept = vecs[i][:, keep[i]]
        out[i] = (kept / eig[i][keep[i]]) @ kept.T
    return out, keep.sum(axis=-1)


def qn(s, theta: ThetaParams, lam: Lambda) -> float:
    """Quadratic form of the moment mismatch under the pseudo-inverted
    long-run covariance."""
    s = as_series(s)
    v = g_hat(s, lam) - g_theta(theta, lam)
    weight, _ = _pinv(spectral_zero(s, lam))
    return float(v @ weight @ v)


def _lockstep(runs, step) -> list:
    """Run the generators ``runs`` side by side; returns what each returns, in order.

    Each round, ``step(ids, asks)`` gets the indices of the generators still
    running and what each last yielded, does their work at once and returns
    one reply per generator, which is sent back to it."""
    runs = list(runs)
    out: list = [None] * len(runs)
    ids, replies = range(len(runs)), [None] * len(runs)
    while True:
        live, asks = [], []
        for i, reply in zip(ids, replies):
            try:
                asks.append(runs[i].send(reply))
                live.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        if not live:
            return out
        ids = live
        replies = step(ids, asks)


def _newton():
    """One row of :func:`_search`, in Python floats: yields each trial point
    (u0, u1) with the q it must beat (None for the start, taken whatever its
    q; -inf for a closing step, which needs no derivatives) and is sent back
    (ok, q, derivatives) at it.  The derivatives, the dots b'qs, a'pc,
    (b*b)'pc, (a*b)'qs, (a*pc)'(a - 1) and J'WJ, come only with a trial
    that beats its bar, which the search then takes.  Returns (u0, u1, q,
    converged)."""

    def step(shift):
        # solves (H + shift * scale * I) s = -grad from H / scale, whose
        # eigenvalues lie in [-1, 1], so no product over- or underflows
        det = (lowest + shift) * (highest + shift)
        s0 = (h01 * grad1 - (h11 + shift) * grad0) / det / scale
        s1 = (h01 * grad0 - (h00 + shift) * grad1) / det / scale
        return s0, s1

    u0 = u1 = damping = 0.0
    _, q, derivatives = yield u0, u1, None
    for _ in range(NEWTON_MAXITER):
        if derivatives is not None:
            (bqs, apc, bbpc, abqs, apca), (j00, j01, _, j11) = derivatives
            grad0, grad1 = 2.0 * bqs, 2.0 * apc
            h00 = 2.0 * (j00 + bbpc)
            h01 = 2.0 * (j01 - abqs)
            h11 = 2.0 * (j11 - apca)
            mid = (h00 + h11) / 2.0
            half_gap = math.hypot((h00 - h11) / 2.0, h01)
            scale = abs(mid) + half_gap
            if not 0.0 < scale < math.inf:
                break
            h00, h01, h11 = h00 / scale, h01 / scale, h11 / scale
            lowest, highest = (mid - half_gap) / scale, (mid + half_gap) / scale
            if lowest > 0.0:
                s0, s1 = step(0.0)
                if -(grad0 * s0 + grad1 * s1) <= 2.0 * NEWTON_RTOL * q:
                    # a full Newton step lowers q by at most the tolerance:
                    # take it if it lowers q at all, and stop
                    ok, tq, _ = yield u0 + s0, u1 + s1, -math.inf
                    if ok and tq < q:
                        u0, u1, q = u0 + s0, u1 + s1, tq
                    return u0, u1, q, True
        if lowest > 0.0:
            s0, s1 = step(damping)
        else:
            s0, s1 = step(max(damping, NEWTON_MIN_DAMPING) - 2.0 * lowest)
        longest = max(abs(s0), abs(s1))
        if longest > NEWTON_MAX_STEP:
            s0, s1 = s0 * (NEWTON_MAX_STEP / longest), s1 * (NEWTON_MAX_STEP / longest)
        t0, t1 = u0 + s0, u1 + s1
        _, tq, derivatives = yield t0, t1, q
        if derivatives is not None:
            u0, u1, q = t0, t1, tq
            damping /= 10.0
        elif t0 == u0 and t1 == u1:
            break
        else:
            damping = max(10.0 * damping, NEWTON_MIN_DAMPING)
    return u0, u1, q, False


def _search(stack) -> list:
    """Damped Newton search for the minimum of q(u) = v' W v, on a stack of rows.

    Each row of ``stack`` is a (ghat, W, mu0, g0, pts) of :func:`_prepare`:
    its own moments, weight, start and grid; the rows share the grid size.
    v = ghat - g_theta(mu0 + u0 sd, g0 exp(u1)) in standardized coordinates
    u = (u0, u1), started at u = 0.  The gradient -2 J'Wv and the Hessian
    2 J'WJ - 2 sum_k (Wv)_k grad^2 g_k are closed-form in the cosine, sine
    and damping terms of g_theta.  Each step solves (H + t I) s = -grad.
    The damping t starts at 0, grows tenfold (to at least
    ``NEWTON_MIN_DAMPING``) after each failed step and shrinks tenfold after
    each success.  Where H is not positive definite, t is at least
    ``NEWTON_MIN_DAMPING`` plus twice the magnitude of H's lowest
    eigenvalue (all relative to H's spectral radius).  Steps are capped at
    ``NEWTON_MAX_STEP`` per coordinate, and only steps that lower q are
    taken.  Trial points whose variance or damping overflows, underflows to
    zero or makes q non-finite count as failed steps.

    Each row's search is a :func:`_newton` generator, and :func:`_lockstep`
    runs them side by side: each round, the form at every searching row's
    trial point, and its derivatives there when some trial is taken, are
    computed for all of them at once by stacked matmuls (BLAS's dot and
    matrix-vector kernels on each row).  A row leaves the stack when it
    stops, so its result does not depend on the other rows.

    Returns one (mu, sigma2, q, converged) per row.  ``converged`` means the
    Hessian is positive definite where the search stopped and a Newton step
    from there would lower q by at most ``NEWTON_RTOL`` * q.  Otherwise the
    search used up ``NEWTON_MAXITER`` trial points or could make no
    representable move, and the lowest point found is returned.
    """
    if not stack:
        return []
    ghat, weight, mu0, g0, pts = map(np.array, zip(*stack))
    size = pts.shape[1]
    order = np.arange(2 * size).reshape(size, 2).T.ravel()
    sd = np.sqrt(g0)

    def step(ids, asks):
        nonlocal rows, current
        if ids != current:
            rows, current = [c[ids] for c in constants], ids
        ghat, weight, mu0, g0, sd, pts, pts2, b, minus_b, b2 = rows
        u0, u1, bars = zip(*asks)
        sigma2 = g0 * np.exp(np.array(u1))
        a = pts2 * sigma2[:, None] / 2.0
        damp = np.exp(-a)
        ang = pts * (mu0 + np.array(u0) * sd)[:, None]
        gc = damp * np.cos(ang)
        gs = damp * np.sin(ang)
        v = ghat - np.concatenate((gc, gs), axis=1)
        q = (v[:, None, :] @ weight @ v[:, :, None])[:, 0, 0].tolist()
        ok = [math.isfinite(qk) and 0.0 < s2 < math.inf and finite
              for qk, s2, finite in zip(q, sigma2.tolist(), np.isfinite(a).all(axis=1).tolist())]
        taken = [bar is None or okk and qk < bar for okk, qk, bar in zip(ok, q, bars)]
        if not any(taken):
            return [(okk, qk, None) for okk, qk in zip(ok, q)]
        w = (weight @ v[:, :, None])[:, :, 0]
        wc, ws = w[:, :size], w[:, size:]
        pc = wc * gc + ws * gs
        qs = wc * gs - ws * gc
        minus_a = -a
        jac_t = np.concatenate((minus_b * gs, b * gc, minus_a * gc, minus_a * gs), axis=1)
        jac_t = jac_t.reshape(-1, 2, 2 * size)
        jwj = (jac_t @ weight @ jac_t.transpose(0, 2, 1)).reshape(-1, 4).tolist()
        left = np.concatenate((b, a, b2, a * b, a * pc), axis=1).reshape(-1, 5, 1, size)
        right = np.concatenate((qs, pc, pc, qs, a - 1.0), axis=1).reshape(-1, 5, size, 1)
        dots = (left @ right).reshape(-1, 5).tolist()
        return [(okk, qk, (d, j) if t else None) for okk, qk, t, d, j in zip(ok, q, taken, dots, jwj)]

    # a trial point whose variance, damping or squared frequencies overflow,
    # or whose q is not finite, is a failed step, rejected without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        b = pts * sd[:, None]
        # cosine block first, then sine block; the matmuls equal the one-row
        # products only on C-contiguous operands, which indexing by a list keeps
        constants = [
            np.ascontiguousarray(ghat[:, order]),
            np.ascontiguousarray(weight[:, order[:, None], order]),
            mu0, g0, sd, pts, pts * pts, b, -b, b * b,
        ]
        rows, current = constants, list(range(len(stack)))
        found = _lockstep((_newton() for _ in stack), step)
        return [(mu0[k] + u0 * sd[k], g0[k] * np.exp(u1), q, converged)
                for k, (u0, u1, q, converged) in enumerate(found)]


def _moments(x: np.ndarray, scale, lam: Lambda | None):
    """The rank and the (ghat, weight, mu0, g0, pts) of a series ``x``
    scaled by 2**-``scale`` that passed the input gate, whose scaled grid
    passed its checks; or of each row of a stack of them, as arrays with a
    leading axis: the means are taken along the rows, and the stack has one
    (rows, n, 2N) ``_g_matrix``, one matmul per Bartlett lag and one
    ``eigh``."""
    mu = x.mean(axis=-1)
    d = x - mu[..., None]
    g0 = (d * d).mean(axis=-1)
    if lam is None:
        points = _grid(g0)
    else:
        # the data are scaled by 2**-scale: scale the frequencies inversely,
        # so every product of a frequency and an observation is unchanged
        points = np.ldexp(np.asarray(lam.points), np.asarray(scale)[..., None])
    # one matrix of moment terms gives both the sample moments and, once
    # centred, their long-run covariance
    terms = _g_matrix(x, points)
    ghat = terms.mean(axis=-2)
    terms -= ghat[..., None, :]
    cov = _long_run(terms)
    # a matrix that is not finite would fail eigh for the whole stack: it
    # goes in as zeros, of rank 0, which the rank check rejects
    finite = np.isfinite(cov).all(axis=(-2, -1))
    weight, rank = _pinv(np.where(finite[..., None, None], cov, 0.0))
    return rank, (ghat, weight, mu, g0, points)


def _prepare(s, lam: Lambda | None = None):
    """:func:`epps_test` up to the search, on one series: the input gate, the
    grid, the sample moments and the pseudo-inverted long-run covariance,
    and the rank check.  Returns (n, scale, rank, row), where ``row`` is one
    row of :func:`_search`'s input (ghat, weight, mu0, g0, pts)."""
    x, scale = _normalized(s)
    if lam is not None:
        if lam.size > MAX_GRID_SIZE:
            raise InvalidInputError(
                f"frequency grids larger than {MAX_GRID_SIZE} points are not supported"
            )
        with np.errstate(over="ignore"):
            points = np.ldexp(lam.points, scale)
            top = np.abs(x).max() * points.max()
        if not (np.isfinite(points) & (points > 0.0)).all():
            raise InvalidInputError(f"frequency grid {lam.points} at the data's scale 2**{scale} "
                                    "leaves the double range")
        if not np.isfinite(top):
            raise InvalidInputError(f"frequency grid {lam.points} times the data's largest "
                                    "magnitude leaves the double range")
    rank, (ghat, weight, mu, g0, points) = _moments(x, scale, lam)
    if rank <= 2:
        raise NumericDegeneracyError(
            f"long-run covariance of the {2 * points.size} moment conditions has rank "
            f"{rank}; more than 2 are needed to test 2 fitted parameters"
        )
    return x.size, scale, int(rank), (ghat, weight, float(mu), float(g0), points)


def _prepare_rows(block: np.ndarray, lam: Lambda | None = None) -> list:
    """:func:`_prepare` on each row of a 2-d float array, the rows that pass
    the input gate and their grid's checks stacked in one :func:`_moments`.
    Each row is scaled as the gate scales a series, and a row that the gate,
    its grid or the rank check rejects gets the error of :func:`_prepare`
    on it."""
    n = block.shape[1]
    if n < MIN_TEST_LENGTH or lam is not None and lam.size > MAX_GRID_SIZE:
        return [_caught(_prepare, row, lam) for row in block]
    # a row with a non-finite value has a non-finite spread
    with np.errstate(invalid="ignore", over="ignore"):
        half, scale = _spread_exponents(block)
        live = np.isfinite(half) & (half > 0.0)
        if lam is not None:
            points = np.ldexp(np.asarray(lam.points), scale[:, None])
            live &= (np.isfinite(points) & (points > 0.0)).all(axis=1)
            live &= np.isfinite(np.ldexp(np.abs(block).max(axis=1), -scale) * points.max(axis=1))
    live = np.flatnonzero(live)
    out = [None] * len(block)
    rank, (ghat, weight, mu, g0, points) = _moments(
        np.ldexp(block[live], -scale[live, None]), scale[live], lam
    )
    rows = zip(live.tolist(), rank.tolist(), ghat, weight, mu.tolist(), g0.tolist(), points)
    for i, r, *row in rows:
        if r > 2:
            out[i] = (n, int(scale[i]), r, tuple(row))
    return [_caught(_prepare, x, lam) if p is None else p for p, x in zip(out, block)]


def _results(prepared, found) -> list:
    """The :class:`EppsResult` of each :func:`_prepare` output and its row of
    :func:`_search`, or the :class:`NortsError` it raises; one ``chi2_sf``
    call per df."""
    stats = np.array([max(0.0, p[0] * f[2]) for p, f in zip(prepared, found)])
    dfs = np.array([p[2] - 2 for p in prepared], dtype=int)
    p_values = np.empty_like(stats)
    for df in set(dfs.tolist()):
        p_values[dfs == df] = chi2_sf(stats[dfs == df], df)

    def result(prepared, found, stat, df, p_value):
        scale = prepared[1]
        mu_hat, sigma2_hat, _, converged = found
        with np.errstate(over="ignore"):
            theta_hat = ThetaParams(np.ldexp(mu_hat, scale), np.ldexp(sigma2_hat, 2 * scale))
        return EppsResult(statistic=stat, df=df, p_value=p_value, theta_hat=theta_hat,
                          converged=converged)

    rows = zip(prepared, found, stats.tolist(), dfs.tolist(), p_values.tolist())
    return [_caught(result, *row) for row in rows]


def _epps_rows(series, lam: Lambda | None = None) -> list:
    """:func:`epps_test` on each of ``series``: its :class:`EppsResult` or the
    :class:`NortsError` it raises.  One-dimensional arrays of equal length
    are prepared as one stack (:func:`_prepare_rows`), any other series
    alone, and all of them search in one :func:`_search`."""
    series = list(series)
    by_length: dict = {}
    for i, s in enumerate(series):
        stackable = isinstance(s, np.ndarray) and s.ndim == 1
        by_length.setdefault(s.size if stackable else -1 - i, []).append(i)
    prepared = [None] * len(series)
    for rows in by_length.values():
        if len(rows) == 1:
            stack = [_caught(_prepare, series[rows[0]], lam)]
        else:
            stack = _prepare_rows(np.array([series[i] for i in rows], dtype=float), lam)
        for i, p in zip(rows, stack):
            prepared[i] = p
    ready = [p for p in prepared if not isinstance(p, NortsError)]
    results = iter(_results(ready, _search([p[3] for p in ready])))
    return [p if isinstance(p, NortsError) else next(results) for p in prepared]


def epps_test(s, lam: Lambda | None = None) -> EppsResult:
    """Characteristic-function normality test.

    Minimizes the quadratic form over the normal parameters by a damped
    Newton search (see :func:`_search`, here on a stack of one row) started
    at the sample mean and variance, with the variance kept positive through
    a log parameterization.  The search runs in standardized coordinates
    (offsets in units of the sample standard deviation) so the search path
    is the same for affinely mapped data.

    The degrees of freedom are the rank of the pseudo-inverted long-run
    covariance minus 2; a rank of 2 or less leaves nothing to test and
    raises :class:`NumericDegeneracyError`.  Returns a result with
    ``converged=False`` when the search stops before its convergence test
    holds; the statistic is then n times the lowest form found, and the
    p-value is still reported.
    """
    return _one_result(_epps_rows([s], lam))
