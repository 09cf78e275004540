"""Distribution functions and innovation sampling.

Sampling is inverse-CDF throughout, so a given :class:`~norts.rng.RngStream`
yields the same uniforms everywhere and each law's quantile function fixes
the draws.  Most quantiles come from ``scipy.special``.  Three laws have
closed-form kernels instead, each solved by Newton-type steps on an
explicit CDF:

* t(3): the CDF is (θ + sin θ cos θ)/π + 1/2 with θ = arctan(t/√3).  The
  angle is solved with power series in IEEE arithmetic (and ``frexp`` and
  ``ldexp``), and t comes from one ``np.sin`` and one ``np.cos``, whose
  float64 results equalled the C library's on the CPUs tested.  ``stdtrit``
  (scipy 1.17) halves the quantile below u ≈ 5e-163 and returns +inf
  from u ≈ 1e-237 down; this kernel stays within a few ulp down to the
  smallest normal float.
* gamma with an integer shape a up to ``_GAMMA_SERIES_MAX`` (chi-square
  with even df): P(a, y) and Q(a, y) are finite series times exp(-y).  The
  kernel calls ``np.exp`` and ``np.log``, which numpy computes with
  CPU-specific SIMD code, so these draws can differ in the last bits
  between CPUs, as the log-normal's ``np.exp`` draws already do.
* beta with integer shapes a, b >= 2 and a + b - 1 up to ``_BETA_SUM_MAX``
  (rp's default beta(2, 7) sticks among them): the CDF is a binomial sum,
  solved by Halley steps in IEEE arithmetic, ``sqrt``, ``frexp`` and
  ``ldexp``, from starts whose 2**(r/a) constants are the C library's pow
  on Python floats (as in ``_t_ppf``); so these draws are the same on every
  CPU.  ``betaincinv`` (scipy 1.17) was up to a few hundred ulp off on some
  of these shapes, and nan in their far lower tails; the kernel stays within
  4 ulp down to the smallest normal float, and inverts 4096 points of
  beta(2, 7) about 6x faster.

Student's t for other df keeps ``stdtrit``, and other beta shapes
``betaincinv``, except in the far lower tail (see ``_t_ppf`` and
``_beta_ppf``).  The other laws' draws are the same on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import InvalidInputError
from .rng import RngStream

__all__ = [
    "normal_ppf",
    "chi2_sf",
    "InnovationLaw",
    "sample",
]


def normal_ppf(q):
    """Standard normal quantile function, inverse of Phi."""
    return special.ndtri(q)


def chi2_sf(x, df: int):
    """Upper-tail probability of the chi-square distribution with ``df`` dof.

    For ``df == 2`` the exact form exp(-x/2) is used.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InvalidInputError("chi-square statistic must be non-negative")
    df = int(df)
    if df < 1:
        raise InvalidInputError("degrees of freedom must be a positive integer")
    if df == 2:
        out = np.exp(-x / 2.0)
    else:
        out = special.chdtrc(df, x)
    return float(out) if out.ndim == 0 else out


def _poly(coefs, x):
    """sum(coefs[k] * x**k) by Horner's rule."""
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _alternating(denominators):
    """Power-series coefficients (-4)**k / d_k! for k = 1, 2, ..."""
    return [(-4.0) ** k / math.factorial(d) for k, d in enumerate(denominators, 1)]


_SQRT3 = math.sqrt(3.0)
_PI_LO = 1.2246467991473532e-16  # pi - np.pi
_VELTKAMP = 2.0**27 + 1.0
_PI_HEAD = np.pi * _VELTKAMP - (np.pi * _VELTKAMP - np.pi)  # 26 bits: exact products
_PI_TAIL = np.pi - _PI_HEAD
# sin(x) cos(x) = x + x**3 G(x**2) and cos(2x) = 1 + x**2 E(x**2), to the
# terms that matter for |x| <= pi/4; E gives Newton slopes only
_G = _alternating(range(3, 24, 2))
_E = _alternating(range(2, 15, 2))
# the t(3) kernel's two halves meet at |t| = sqrt(3), where both angles are pi/4
_T3_SPLIT = 0.25 - 0.5 / math.pi
# Starting angles, least-squares fits over each half (relative error below
# 2.2e-6 for phi / r and 8.7e-6 for theta / v): phi = r T(r**2), and theta
# = v U(v**2) / V(v**2) with U, V the two halves of _CENTRE_START.
_TAIL_START = (0.99999935, 0.06670507, 0.01109014, 0.00344553)
_CENTRE_START = ((1.0000021, -1.5572338, 0.36060112), (1.0, -1.8903914, 0.72173585))


def _pi_times(x):
    """pi * x as an unevaluated sum (head, tail), exact to about 2**-100."""
    head = np.pi * x
    big = x * _VELTKAMP
    x1 = big - (big - x)  # Veltkamp split: x1 + x2 == x, 26-bit x1
    x2 = x - x1
    tail = ((_PI_HEAD * x1 - head) + _PI_HEAD * x2 + _PI_TAIL * x1) + _PI_TAIL * x2
    return head, tail + _PI_LO * x


def _cbrt(x):
    """Cube root of positive normal floats to ~2e-6, in IEEE arithmetic only
    (``np.cbrt`` is CPU-specific SIMD code)."""
    m, e = np.frexp(x)
    q, r = np.divmod(e, 3)
    a = np.ldexp(m, r)  # in [0.5, 4)
    y = 0.63627839 + a * (0.39335633 - 0.04040674 * a)  # least-squares start, 4 %
    for _ in range(2):
        y = (y + y + a / (y * y)) / 3.0
    return np.ldexp(y, q)


# Elements per kernel call: the kernels hold a dozen temporaries at once,
# and chunks this small keep them in cache and keep a Monte-Carlo cell's
# peak memory that of its uniform block (a 200 x 141 block is 225 kB).
_KERNEL_CHUNK = 4096


def _piecewise(x, below, f_below, f_above):
    """``f_below`` of the elements of the 1-d ``x`` where ``below`` holds and
    ``f_above`` of the others, ``_KERNEL_CHUNK`` elements per call.  Index
    arrays gather and scatter several times faster than boolean masks on
    mixed data."""
    out = np.empty_like(x)
    for idx, f in ((np.flatnonzero(below), f_below), (np.flatnonzero(~below), f_above)):
        for first in range(0, idx.size, _KERNEL_CHUNK):
            part = idx[first : first + _KERNEL_CHUNK]
            out[part] = f(x.take(part))
    return out


def _t3_tail(p):
    """|t| at tail probability p < ``_T3_SPLIT``: the angle phi =
    arctan(sqrt(3) / |t|) solves phi - sin(phi) cos(phi) = pi p, a
    difference that -phi**3 G(phi**2) keeps exact near zero."""
    c, c_lo = _pi_times(p)
    r = _cbrt(1.5 * c)
    phi = r * _poly(_TAIL_START, r * r)
    s = phi * phi
    phi = phi - ((phi * s * _poly(_G, s) + c) + c_lo) / (s * _poly(_E, s))
    s = phi * phi
    sin, cos = np.sin(phi), np.cos(phi)
    # a second Newton step, added to t (dt/dphi = -sqrt(3) / sin**2) so
    # that the rounding of phi itself does not reach t
    step = ((phi * s * _poly(_G, s) + c) + c_lo) / (-2.0 * sin * sin)
    return _SQRT3 * cos / sin + _SQRT3 * step / (sin * sin)


def _t3_centre(p):
    """|t| at tail probability p >= ``_T3_SPLIT``: theta = arctan(|t| /
    sqrt(3)) solves theta + sin(theta) cos(theta) = pi (1/2 - p), which is
    2 theta + theta**3 G(theta**2)."""
    d = 0.5 - p
    c, c_lo = _pi_times(d)
    c_lo = c_lo + np.pi * ((0.5 - d) - p)  # 1/2 - p rounds below p = 1/4
    v = 0.5 * c
    s = v * v
    theta = v * _poly(_CENTRE_START[0], s) / _poly(_CENTRE_START[1], s)
    s = theta * theta
    residual = ((theta + theta - c) - c_lo) + theta * s * _poly(_G, s)
    theta = theta - residual / (2.0 + s * _poly(_E, s))
    s = theta * theta
    sin, cos = np.sin(theta), np.cos(theta)
    step = (((theta + theta - c) - c_lo) + theta * s * _poly(_G, s)) / (2.0 * cos * cos)
    return _SQRT3 * sin / cos - _SQRT3 * step / (cos * cos)


def _t3_ppf(u):
    """Quantiles of Student's t with 3 degrees of freedom.

    With p = min(u, 1 - u), which is exact, |t| = sqrt(3) tan(theta) where
    theta + sin(theta) cos(theta) = pi (1/2 - p): the t(3) CDF in closed
    form.  Each half of the p range starts from a fitted approximation of
    its angle, takes one Newton step on a power series of its equation and
    adds a second step to t itself, with pi p to twice working precision.
    """
    flat = np.asarray(u, dtype=float).reshape(-1)
    p = np.minimum(flat, 1.0 - flat)
    out = _piecewise(p, p < _T3_SPLIT, _t3_tail, _t3_centre)
    return np.copysign(out, flat - 0.5).reshape(np.shape(u))


# Integer gamma shapes up to this use the series kernel.  M(y) below takes
# more terms as a grows (about 80 at a = 50); at a = 100 the kernel was
# under twice as fast as gammaincinv on a 200 x 141 block.
_GAMMA_SERIES_MAX = 50


def _power_over_factorial(y, n: int):
    """y**n / n! by repeated multiplication."""
    acc = np.ones_like(y)
    for _ in range(n):
        acc *= y
    return acc / math.factorial(n)


def _gamma_newton(y, target, evaluate, steps: int):
    """Solve F(y) = target: Newton steps in log y on log F, then one in y.

    ``evaluate(y)`` returns F(y) and F / (y F'(y)).  log F is concave in
    log y for both branches below, so the log steps never overshoot from
    below the root."""
    log_target = np.log(target)
    for _ in range(steps - 1):
        f, ratio = evaluate(y)
        y = y * np.exp((log_target - np.log(f)) * ratio)
    f, ratio = evaluate(y)
    return y - y * ((f - target) / f) * ratio


def _gamma_int_ppf(a: int, u):
    """Quantiles of gamma(a, 1) for an integer shape a >= 1.

    Up to the median P(a, y) = y**a e**-y / a! * M(y) with M(y) =
    sum_k y**k a! / (a + k)!; above it Q(a, y) = e**-y * sum_{j<a} y**j / j!
    is solved for 1 - u, which is exact there.  Both start from Wilson and
    Hilferty's cube; the lower half starts no lower than y0 e**(y0/(a+1)),
    y0 = (u a!)**(1/a), the root with e**-y M(y) taken as e**(-a y/(a+1)).
    """
    # M's k-th term is below prod_{j<=k} y / (a + j), and y stays below
    # the median, which is below a
    m_coefs, bound = [1.0], 1.0
    while bound > 2.0**-56:
        k = len(m_coefs)
        m_coefs.append(m_coefs[-1] / (a + k))
        bound *= a / (a + k)
    s_coefs = [1.0 / math.factorial(j) for j in range(a)]

    def lower_cdf(y):
        m = _poly(m_coefs, y)
        return _power_over_factorial(y, a) * np.exp(-y) * m, m / a

    def upper_cdf(y):
        s = _poly(s_coefs, y)
        return np.exp(-y) * s, -s / (y * _power_over_factorial(y, a - 1))

    def wilson_hilferty(v):
        h = 1.0 / (9.0 * a)
        b = np.maximum(1.0 - h + special.ndtri(v) * math.sqrt(h), 0.0)
        return a * b * b * b

    def lower(v):
        y0 = np.exp((np.log(v) + math.lgamma(a + 1.0)) / a)
        start = np.maximum(wilson_hilferty(v), y0 * np.exp(y0 / (a + 1.0)))
        return _gamma_newton(start, v, lower_cdf, 3)

    def upper(v):
        return _gamma_newton(wilson_hilferty(v), 1.0 - v, upper_cdf, 5)

    flat = np.asarray(u, dtype=float).reshape(-1)
    return _piecewise(flat, flat <= 0.5, lower, upper).reshape(np.shape(u))


def _gamma_ppf(a: float, u):
    if a == int(a) and a <= _GAMMA_SERIES_MAX:
        return _gamma_int_ppf(int(a), u)
    return special.gammaincinv(a, u)


# stdtrit (scipy 1.17) loses the far lower tail for 1 < df < ~19: it returns
# +inf, or a value off by up to a half, from u ~ 1e-109 down (df just above
# 2) to from u ~ 1e-308 down (df ~ 18), and clamps near -1e153 below df = 2.
# From df = 30 it stays within an ulp.
_T_FAR = 1e-100


def _t_ppf(df: float, u):
    """Quantiles of Student's t: ``stdtrit``, except at u < ``_T_FAR`` for
    1 < df < 30.  There, for 2 < df, F(t) = I_x(df/2, 1/2) / 2 with x = df /
    (df + t**2) is inverted by ``betaincinv`` and t = -sqrt(df (1/x - 1)).
    Below df = 2 that x underflows, and t takes the leading term of the
    tail, F(t) = df**(df/2 - 1) |t|**-df / B(df/2, 1/2) (1 + O(t**-2)) with
    |t| > 1e50: t = -sqrt(df) y**(-1/df), y = u df B(df/2, 1/2).  The
    exponent -1/df rounds to p, and ln(y) / df, down to -550, would magnify
    that rounding to a few hundred ulp; so the power is y**p times y**(-e /
    df) = 1 - e ln(y) / df, with e = 1 + df p formed exactly.  That pow and
    log are the C library's, on Python floats, not numpy's SIMD code.  (u
    never comes within 2**-53 of 1, so the upper tail needs no such care.)"""
    t = special.stdtrit(df, u)
    far = np.asarray(u) < _T_FAR
    if 1.0 < df < 30.0 and df != 2.0 and far.any():
        t, v = np.array(t), np.asarray(u)[far]
        if df < 2.0:
            p = -1.0 / df
            e = float(1 + Fraction(df) * Fraction(p))
            y = (v * (df * special.beta(0.5 * df, 0.5))).tolist()
            tail = [-math.sqrt(df) * w**p * (1.0 - e / df * math.log(w)) for w in y]
        else:
            x = special.betaincinv(0.5 * df, 0.5, 2.0 * v)
            tail = -np.sqrt(df * (1.0 / x - 1.0))
        # each route is a few ulp off, and t moves by less than that within
        # an ulp of u: no value below the seam may exceed stdtrit's at it
        t[far] = np.minimum(tail, special.stdtrit(df, _T_FAR))
    return t


# Integer beta shapes a, b >= 2 with a + b - 1 up to this use the
# binomial-sum kernel.  Its _BETA_STEPS steps came within 4 ulp of mpmath
# on every such shape, and there it beat betaincinv on 4096 points by 2.4x
# or more; from 12 on, some central quantiles were still unconverged after
# them (off by up to 8e4 ulp at 15).  scipy inverts a = 1 or b = 1 in
# closed form, faster than the kernel (beta(7, 1) by 1.5x, beta(100, 1) by
# 3x), so those shapes keep it.
_BETA_SUM_MAX = 11
# Halley steps of the binomial-sum kernel, the last of them a Newton step
_BETA_STEPS = 4


def _power(x, k: int):
    """x**k for an integer k >= 1 by repeated squaring."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else acc * x
        k >>= 1
        if k:
            x = x * x
    return acc


def _root_start(z, a: int):
    """z**(1/a) for positive normal z and a >= 2, in IEEE arithmetic: exact
    (``sqrt``) for a = 2, within 1 % for larger a.  With z = m 2**(q a +
    r), m in [1/2, 1), the root is 2**q 2**(r/a) m**(1/a); m**(1/a) takes
    two terms of its series at m = 1, and the a constants 2**(r/a) are the
    C library's pow on Python floats."""
    if a == 2:
        return np.sqrt(z)
    m, e = np.frexp(z)
    q, r = np.divmod(e, a)
    d = m - 1.0
    y = 1.0 + d / a * (1.0 + d * (1.0 - a) / (2.0 * a))
    return np.ldexp(y * np.array([2.0 ** (k / a) for k in range(a)])[r], q)


def _beta_int_ppf(a: int, b: int, u):
    """Quantiles of beta(a, b) for integer shapes a, b >= 2.

    With n = a + b - 1, F(x) = sum_{j>=a} C(n, j) x**j (1-x)**(n-j), the
    chance of at least a successes in n trials.  Up to the median F = u is
    solved, as x**a (1-x)**(b-1) P(x / (1-x)) with P's coefficients
    positive; above it the complement sum_{j<a} = 1 - u, which is exact
    there, as (1-x)**b x**(a-1) Q((1-x) / x).  Each branch starts from its
    leading tail term, C(n, a) x**a = u or C(n, b) (1-x)**b = 1 - u, and
    takes Halley steps kept inside a bracket of the root that starts at the
    median's bounds (the mode and the mean, widened a little).  Its last
    step is Newton's, and adds the rounding of 1 - x to the residual through
    Euler's identity for the degree-n homogeneous sums.  The arithmetic is
    IEEE products, quotients and ``sqrt`` (and ``frexp`` and ``ldexp``), and
    the starts' constants are the C library's pow on Python floats, so the
    draws are the same on every CPU.
    """
    n = a + b - 1
    density = a * math.comb(n, a)  # 1 / B(a, b)
    mean, mode = a / (a + b), (a - 1) / (n - 1)
    slack = 0.5 / (n + 1)

    def solve(x, target, sign, coefs, lo, hi):
        # sign +1: F(x) rises to u; sign -1: the complement falls to 1 - u
        x = np.minimum(np.maximum(x, lo), hi)
        for k in range(_BETA_STEPS):
            y = 1.0 - x
            f = density * _power(x, a - 1) * _power(y, b - 1)
            own, other = (x, y) if sign > 0 else (y, x)
            value = f * own * _poly(coefs, own / other)
            r = value - target
            if k < _BETA_STEPS - 1:
                # Halley: f'(x) / f(x) is (a - 1) / x - (b - 1) / y
                step = sign * r / f
                step = step / (1.0 - 0.5 * step * ((a - 1) / x - (b - 1) / y))
                above = r > 0.0 if sign > 0 else r < 0.0
                hi = np.where(above, x, hi)
                lo = np.where(above, lo, x)
                x = x - step
                x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
            else:
                # d(value)/dy at fixed x is (n value - sign x f) / (x + y)
                y_lo = (1.0 - y) - x
                x = x - sign * (r + y_lo * (n * value - sign * x * f)) / f
        return x

    def lower(v):
        start = _root_start(v, a) * math.comb(n, a) ** (-1.0 / a)
        coefs = [math.comb(n, a + k) / density for k in range(b)]
        return solve(start, v, 1.0, coefs, 0.0, max(mean, mode) + slack)

    def upper(v):
        start = 1.0 - _root_start(1.0 - v, b) * math.comb(n, b) ** (-1.0 / b)
        coefs = [math.comb(n, a - 1 - k) / density for k in range(a)]
        return solve(start, 1.0 - v, -1.0, coefs, min(mean, mode) - slack, 1.0)

    flat = np.asarray(u, dtype=float).reshape(-1)
    return _piecewise(flat, flat <= 0.5, lower, upper).reshape(np.shape(u))


def _beta_ppf(a: float, b: float, u):
    """Quantiles of beta(a, b): ``_beta_int_ppf`` for integer shapes a, b >=
    2 with a + b - 1 up to ``_BETA_SUM_MAX``.  Other shapes take ``betaincinv``,
    except where it returns nan (scipy 1.17 does so far in the lower tail
    for some shapes, beta(2, 20) below u ~ 1e-188 among them).  There x is
    tiny and I_x(a, b) = x**a / (a B(a, b)) (1 + O(b x)), so x starts at (u
    a B(a, b))**(1/a) and takes one Newton step in that ratio form (with
    numpy's CPU-specific array power, as the log-normal's draws use its
    ``exp``)."""
    if a == int(a) >= 2 and b == int(b) >= 2 and a + b - 1 <= _BETA_SUM_MAX:
        return _beta_int_ppf(int(a), int(b), u)
    x = special.betaincinv(a, b, u)
    lost = np.isnan(x)
    if lost.any():
        x, v = np.array(x), np.asarray(u)[lost]
        lead = v ** (1.0 / a) * (a * special.beta(a, b)) ** (1.0 / a)
        x[lost] = lead * (1.0 + (v / special.betainc(a, b, lead) - 1.0) / a)
    return x


# Each law's parameter count and its quantile function of (params, u).
_LAWS = {
    "normal": (0, lambda p, u: special.ndtri(u)),
    "lognormal": (0, lambda p, u: np.exp(special.ndtri(u))),
    "t": (1, lambda p, u: _t3_ppf(u) if p[0] == 3.0 else _t_ppf(p[0], u)),
    "chisq": (1, lambda p, u: 2.0 * _gamma_ppf(p[0] / 2.0, u)),
    "beta": (2, lambda p, u: _beta_ppf(p[0], p[1], u)),
    "gamma": (2, lambda p, u: _gamma_ppf(p[1], u) / p[0]),  # p = (rate, shape)
}


@dataclass(frozen=True)
class InnovationLaw:
    """Tagged innovation distribution for process simulation.

    Supported laws: standard normal, standard log-normal, Student t(df),
    chi-squared(df), beta(a, b) and gamma(rate, shape).  Use the named
    constructors rather than the raw constructor.
    """

    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in _LAWS:
            raise InvalidInputError(
                f"unknown innovation law {self.name!r}; expected one of {sorted(_LAWS)}"
            )
        params = tuple(float(p) for p in self.params)
        arity = _LAWS[self.name][0]
        if len(params) != arity:
            raise InvalidInputError(f"law {self.name!r} takes {arity} parameter(s), got {len(params)}")
        if any(not np.isfinite(p) or p <= 0 for p in params):
            raise InvalidInputError(f"law {self.name!r} requires strictly positive parameters")
        object.__setattr__(self, "params", params)

    @classmethod
    def normal(cls) -> "InnovationLaw":
        return cls("normal")

    @classmethod
    def lognormal(cls) -> "InnovationLaw":
        return cls("lognormal")

    @classmethod
    def student_t(cls, df: float) -> "InnovationLaw":
        return cls("t", (df,))

    @classmethod
    def chi_squared(cls, df: float) -> "InnovationLaw":
        return cls("chisq", (df,))

    @classmethod
    def beta(cls, a: float, b: float) -> "InnovationLaw":
        return cls("beta", (a, b))

    @classmethod
    def gamma(cls, rate: float, shape: float) -> "InnovationLaw":
        return cls("gamma", (rate, shape))

    @property
    def label(self) -> str:
        """Compact text form, e.g. ``t(3)`` or ``beta(7,1)``."""
        if not self.params:
            return self.name
        inner = ",".join(f"{p:g}" for p in self.params)
        return f"{self.name}({inner})"

    @classmethod
    def parse(cls, text: str) -> "InnovationLaw":
        """Parse the :attr:`label` form back into a law.

        Accepts the short aliases ``N`` (normal), ``logN`` (log-normal),
        ``t3`` and ``chisq10`` used in simulation-study tables.
        """
        text = text.strip()
        aliases = {"N": cls.normal(), "logN": cls.lognormal(),
                   "t3": cls.student_t(3), "chisq10": cls.chi_squared(10)}
        if text in aliases:
            return aliases[text]
        if "(" in text:
            name, _, rest = text.partition("(")
            rest = rest.rstrip(")")
            try:
                params = tuple(float(p) for p in rest.split(",")) if rest else ()
            except ValueError:
                raise InvalidInputError(f"cannot parse innovation law {text!r}") from None
            return cls(name.strip(), params)
        return cls(text)


def _quantile(law: InnovationLaw, u):
    """Quantiles of ``law`` at uniforms ``u`` in (0, 1), of any shape, element
    by element."""
    return _LAWS[law.name][1](law.params, u)


def sample(law: InnovationLaw, rng: RngStream, size: int | None = None):
    """Draw from ``law`` by inverse CDF; scalar when ``size`` is None."""
    out = _quantile(law, rng.uniform(size))
    return float(out) if size is None else np.asarray(out, dtype=float)
