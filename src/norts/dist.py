"""Distribution functions and innovation sampling.

The normal quantile function and the chi-square upper tail are thin
wrappers over ``scipy.special`` primitives; sampling is inverse-CDF
throughout so that a given :class:`~norts.rng.RngStream` yields the same
draws on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Each law's parameter count and its quantile function of (params, u).
_LAWS = {
    "normal": (0, lambda p, u: special.ndtri(u)),
    "lognormal": (0, lambda p, u: np.exp(special.ndtri(u))),
    "t": (1, lambda p, u: special.stdtrit(p[0], u)),
    "chisq": (1, lambda p, u: 2.0 * special.gammaincinv(p[0] / 2.0, u)),
    "beta": (2, lambda p, u: special.betaincinv(p[0], p[1], u)),
    "gamma": (2, lambda p, u: special.gammaincinv(p[1], u) / p[0]),  # p = (rate, shape)
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
    """Quantiles of ``law`` at uniforms ``u`` of any shape, element by element."""
    return _LAWS[law.name][1](law.params, u)


def sample(law: InnovationLaw, rng: RngStream, size: int | None = None):
    """Draw from ``law`` by inverse CDF; scalar when ``size`` is None."""
    out = _quantile(law, rng.uniform(size))
    return float(out) if size is None else np.asarray(out, dtype=float)
