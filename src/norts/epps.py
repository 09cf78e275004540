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
from .errors import InvalidInputError, NumericDegeneracyError
from .series import as_series, require_test_length

__all__ = [
    "Lambda",
    "ThetaParams",
    "EppsResult",
    "default_lambda",
    "g_vector",
    "g_theta",
    "g_hat",
    "spectral_zero",
    "qn",
    "epps_test",
]

MAX_GRID_SIZE = 8
PINV_RCOND = 1e-10
# Settings of the damped Newton search (see _minimize_qn).  Damping is
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
    """Normal-law parameters (mean, variance) with variance > 0."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise InvalidInputError("mu must be finite")
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise InvalidInputError("sigma2 must be finite and strictly positive")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))


@dataclass(frozen=True)
class EppsResult:
    statistic: float
    df: int
    p_value: float
    theta_hat: ThetaParams
    converged: bool


def default_lambda(s) -> Lambda:
    """Default grid (1, 2) scaled by the reciprocal sample standard deviation.

    Scaling by the standard deviation makes every moment condition, and
    hence the minimized statistic, exactly invariant under affine maps of
    the data.
    """
    s = as_series(s)
    d = s.values - np.mean(s.values)
    g0 = float(np.mean(d * d))
    if g0 <= 0.0:
        raise InvalidInputError("series has zero variance")
    sd = np.sqrt(g0)
    return Lambda((1.0 / sd, 2.0 / sd))


def g_vector(x: float, lam: Lambda) -> np.ndarray:
    """Interleaved [cos(l1 x), sin(l1 x), ..., cos(lN x), sin(lN x)]."""
    ang = np.asarray(lam.points) * float(x)
    out = np.empty(2 * lam.size)
    out[0::2] = np.cos(ang)
    out[1::2] = np.sin(ang)
    return out


def _g_matrix(values: np.ndarray, lam: Lambda) -> np.ndarray:
    ang = np.outer(values, lam.points)
    out = np.empty((values.size, 2 * lam.size))
    out[:, 0::2] = np.cos(ang)
    out[:, 1::2] = np.sin(ang)
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
    return _g_matrix(s.values, lam).mean(axis=0)


def spectral_zero(s, lam: Lambda) -> np.ndarray:
    """Long-run covariance (2 pi times the zero-frequency spectral density)
    of the moment vector process.

    Bartlett weights 1 - i/m with truncation m = floor(n^(2/5)) are applied
    to lag-i cross-products of per-observation deviations from the sample
    moment vector; the result is symmetrized.
    """
    s = as_series(s)
    require_test_length(s)
    n = len(s)
    d = _g_matrix(s.values, lam)
    d -= d.mean(axis=0)
    m = int(np.floor(n ** (2.0 / 5.0)))
    mat = d.T @ d
    for i in range(1, m + 1):
        w = 1.0 - i / m
        if w <= 0.0:
            break
        cross = d[: n - i].T @ d[i:]
        mat += w * (cross + cross.T)
    return mat / n


def _pinv(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """Pseudo-inverse of a symmetric matrix and the rank it keeps.

    Eigenvalues at or below ``PINV_RCOND`` times the largest magnitude are
    treated as zero.
    """
    eig, vecs = np.linalg.eigh(mat)
    keep = np.abs(eig) > PINV_RCOND * np.abs(eig).max()
    kept = vecs[:, keep]
    return (kept / eig[keep]) @ kept.T, int(keep.sum())


def qn(s, theta: ThetaParams, lam: Lambda) -> float:
    """Quadratic form of the moment mismatch under the pseudo-inverted
    long-run covariance."""
    s = as_series(s)
    v = g_hat(s, lam) - g_theta(theta, lam)
    weight, _ = _pinv(spectral_zero(s, lam))
    return float(v @ weight @ v)


def _minimize_qn(ghat, weight, mu0, g0, pts):
    """Damped Newton search for the minimum of q(u) = v' W v.

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

    Returns (mu, sigma2, q, converged).  ``converged`` means the Hessian is
    positive definite where the search stopped and a Newton step from there
    would lower q by at most ``NEWTON_RTOL`` * q.  Otherwise the search used
    up ``NEWTON_MAXITER`` trial points or could make no representable move,
    and the lowest point found is returned.
    """
    size = pts.size
    order = np.arange(2 * size).reshape(size, 2).T.ravel()
    ghat = ghat[order]
    weight = weight[np.ix_(order, order)]
    sd = np.sqrt(g0)
    b = pts * sd

    def evaluate(u0, u1):
        # cosine block first, then sine block, to match the reordered W
        with np.errstate(over="ignore", invalid="ignore"):
            sigma2 = g0 * np.exp(u1)
            a = pts * pts * sigma2 / 2.0
            damp = np.exp(-a)
            ang = pts * (mu0 + u0 * sd)
            gc = damp * np.cos(ang)
            gs = damp * np.sin(ang)
            v = ghat - np.concatenate((gc, gs))
            q = float(v @ weight @ v)
        if not (np.isfinite(q) and 0.0 < sigma2 < np.inf and np.isfinite(a).all()):
            return None
        return q, v, gc, gs, a

    def step(shift):
        # solves (H + shift * scale * I) s = -grad from H / scale, whose
        # eigenvalues lie in [-1, 1], so no product over- or underflows
        det = (lowest + shift) * (highest + shift)
        s0 = (h01 * grad1 - (h11 + shift) * grad0) / det / scale
        s1 = (h01 * grad0 - (h00 + shift) * grad1) / det / scale
        return s0, s1

    u0 = u1 = 0.0
    q, v, gc, gs, a = evaluate(u0, u1)
    damping = 0.0
    converged = False
    fresh = True
    for _ in range(NEWTON_MAXITER):
        if fresh:
            w = weight @ v
            pc = w[:size] * gc + w[size:] * gs
            qs = w[:size] * gs - w[size:] * gc
            jac = np.empty((2 * size, 2))
            jac[:size, 0] = -b * gs
            jac[size:, 0] = b * gc
            jac[:size, 1] = -a * gc
            jac[size:, 1] = -a * gs
            jwj = jac.T @ weight @ jac
            grad0 = 2.0 * float(b @ qs)
            grad1 = 2.0 * float(a @ pc)
            h00 = 2.0 * float(jwj[0, 0] + (b * b) @ pc)
            h01 = 2.0 * float(jwj[0, 1] - (a * b) @ qs)
            h11 = 2.0 * float(jwj[1, 1] - (a * pc) @ (a - 1.0))
            mid = (h00 + h11) / 2.0
            half_gap = math.hypot((h00 - h11) / 2.0, h01)
            scale = abs(mid) + half_gap
            if not 0.0 < scale < math.inf:
                break
            h00, h01, h11 = h00 / scale, h01 / scale, h11 / scale
            lowest = (mid - half_gap) / scale
            highest = (mid + half_gap) / scale
            if lowest > 0.0:
                s0, s1 = step(0.0)
                if -(grad0 * s0 + grad1 * s1) <= 2.0 * NEWTON_RTOL * q:
                    trial = evaluate(u0 + s0, u1 + s1)
                    if trial is not None and trial[0] < q:
                        u0, u1, q = u0 + s0, u1 + s1, trial[0]
                    converged = True
                    break
        if lowest > 0.0:
            s0, s1 = step(damping)
        else:
            s0, s1 = step(max(damping, NEWTON_MIN_DAMPING) - 2.0 * lowest)
        longest = max(abs(s0), abs(s1))
        if longest > NEWTON_MAX_STEP:
            s0, s1 = s0 * (NEWTON_MAX_STEP / longest), s1 * (NEWTON_MAX_STEP / longest)
        trial = evaluate(u0 + s0, u1 + s1)
        fresh = trial is not None and trial[0] < q
        if fresh:
            u0, u1 = u0 + s0, u1 + s1
            q, v, gc, gs, a = trial
            damping /= 10.0
        elif u0 + s0 == u0 and u1 + s1 == u1:
            break
        else:
            damping = max(10.0 * damping, NEWTON_MIN_DAMPING)
    return mu0 + u0 * sd, g0 * np.exp(u1), q, converged


def epps_test(s, lam: Lambda | None = None) -> EppsResult:
    """Characteristic-function normality test.

    Minimizes the quadratic form over the normal parameters by a damped
    Newton search (see :func:`_minimize_qn`) started at the sample mean and
    variance, with the variance kept positive through a log
    parameterization.  The search runs in standardized coordinates
    (offsets in units of the sample standard deviation) so the search path
    is the same for affinely mapped data.

    The degrees of freedom are the rank of the pseudo-inverted long-run
    covariance minus 2; a rank of 2 or less leaves nothing to test and
    raises :class:`NumericDegeneracyError`.  Returns a result with
    ``converged=False`` when the search stops before its convergence test
    holds; the statistic is then n times the lowest form found, and the
    p-value is still reported.
    """
    s = as_series(s)
    require_test_length(s)
    n = len(s)
    mu = float(np.mean(s.values))
    d = s.values - mu
    g0 = float(np.mean(d * d))
    if g0 <= 0.0:
        raise InvalidInputError("series has zero variance")
    if lam is None:
        lam = default_lambda(s)
    if lam.size > MAX_GRID_SIZE:
        raise InvalidInputError(
            f"frequency grids larger than {MAX_GRID_SIZE} points are not supported"
        )

    ghat = g_hat(s, lam)
    weight, rank = _pinv(spectral_zero(s, lam))
    if rank <= 2:
        raise NumericDegeneracyError(
            f"long-run covariance of the {2 * lam.size} moment conditions has rank "
            f"{rank}; more than 2 are needed to test 2 fitted parameters"
        )
    mu_hat, sigma2_hat, q, converged = _minimize_qn(ghat, weight, mu, g0, np.asarray(lam.points))
    stat = max(0.0, n * q)
    df = rank - 2
    return EppsResult(
        statistic=stat,
        df=df,
        p_value=chi2_sf(stat, df),
        theta_hat=ThetaParams(mu_hat, sigma2_hat),
        converged=converged,
    )
