"""Random-projection test of full process Gaussianity.

Random directions in the space of square-summable sequences are drawn by a
beta stick-breaking construction; the process is projected onto each
direction, the marginal normality tests are applied to the projections,
and the resulting p-values are combined with a false-discovery-rate
adjustment that is valid under arbitrary dependence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import InnovationLaw, sample
from .epps import epps_test
from .errors import InvalidInputError, NortsError, NumericDegeneracyError
from .lobato import lobato_test
from .rng import RngStream
from .series import MIN_TEST_LENGTH, Series, _normalized, as_series

__all__ = [
    "ProjectionConfig",
    "ProjectionVector",
    "RpResult",
    "stick_breaking_h",
    "project_series",
    "fdr_combine",
    "rp_test",
]

STICK_CAP = 10_000
# Stick-breaking stops once the sticks hold this much of the unit mass.
TRUNCATION_MASS = 1.0 - 1e-9
_DRAW_ATTEMPTS = 100
_STICK_CHUNK = 32


@dataclass(frozen=True)
class ProjectionConfig:
    """Configuration for :func:`rp_test`.

    Half of the ``k`` projections are drawn with beta parameters ``pars1``
    (spread over many lags by default) and half with ``pars2``
    (concentrated near lag zero by default).
    """

    seed: RngStream
    k: int = 64
    pars1: tuple[float, float] = (2.0, 7.0)
    pars2: tuple[float, float] = (100.0, 1.0)

    def __post_init__(self):
        k = int(self.k)
        if k < 2 or k % 2 != 0:
            raise InvalidInputError(f"number of projections must be even and >= 2, got {k}")
        for pars in (self.pars1, self.pars2):
            if len(pars) != 2 or any(not np.isfinite(p) or p <= 0 for p in pars):
                raise InvalidInputError(f"beta parameters must be two positive reals, got {pars}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "pars1", (float(self.pars1[0]), float(self.pars1[1])))
        object.__setattr__(self, "pars2", (float(self.pars2[0]), float(self.pars2[1])))


@dataclass(frozen=True, eq=False)
class ProjectionVector:
    """Finite non-negative direction with unit l2 norm."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        if w.size == 0:
            raise InvalidInputError("projection vector must be non-empty")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise InvalidInputError("projection weights must be finite and non-negative")
        norm2 = float(np.sum(w * w))
        if abs(norm2 - 1.0) > 1e-9:
            raise InvalidInputError(f"projection weights must have unit l2 norm, got {norm2:.12g}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class RpResult:
    k: int
    avg_lobato: float
    avg_epps: float
    p_value: float
    per_projection: tuple[tuple[str, float, float], ...]


def stick_breaking_h(a: float, b: float, rng: RngStream) -> ProjectionVector:
    """Draw a random direction by beta stick-breaking.

    Sticks w_j = v_j * prod(1 - v_i, i < j) with v_j ~ Beta(a, b) are
    accumulated until their total reaches ``TRUNCATION_MASS``; the retained
    sticks are renormalized and square-rooted so the weights have unit l2
    norm.
    """
    law = InnovationLaw.beta(a, b)
    sticks = []
    total = 0.0
    remaining = 1.0
    while True:
        v = sample(law, rng, size=_STICK_CHUNK)
        for vj in v:
            w = vj * remaining
            sticks.append(w)
            total += w
            remaining *= 1.0 - vj
            if total >= TRUNCATION_MASS:
                weights = np.array(sticks)
                return ProjectionVector(np.sqrt(weights / weights.sum()))
            if len(sticks) > STICK_CAP:
                raise NumericDegeneracyError(
                    f"stick-breaking with beta({a:g},{b:g}) failed to reach mass "
                    f"{TRUNCATION_MASS} within {STICK_CAP} sticks"
                )


def project_series(s, h: ProjectionVector) -> Series:
    """Project the series onto ``h``: Y_t = sum(h_i X_{t-i}).

    The first len(h) - 1 observations serve as history, so the output is
    that much shorter than the input.
    """
    s = as_series(s)
    if len(s) <= len(h):
        raise InvalidInputError(
            f"series of length {len(s)} is too short for a projection spanning {len(h)} lags"
        )
    return Series(np.convolve(s.values, h.weights, mode="valid"))


def fdr_combine(pvalues) -> float:
    """Collapse dependent p-values into one decision-level p-value.

    Sorts the k inputs ascending and returns min over i of
    p_(i) * k * c(k) / i with c(k) the k-th harmonic number, capped at 1
    (the smallest Benjamini-Yekutieli adjusted value).
    """
    p = np.asarray(pvalues, dtype=float).reshape(-1)
    if p.size == 0:
        raise InvalidInputError("at least one p-value is required")
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise InvalidInputError("p-values must lie in [0, 1]")
    k = p.size
    c = np.sum(1.0 / np.arange(1, k + 1))
    adjusted = np.sort(p) * k * c / np.arange(1, k + 1)
    return float(min(1.0, adjusted.min()))


def _draw_fitting_projection(
    pars: tuple[float, float], rng: RngStream, n: int, index: int
) -> ProjectionVector:
    # Redraw directions that would leave fewer points than the marginal
    # tests accept; the direction law is independent of the data, so
    # conditioning on a usable length keeps the tests exact under the null.
    for _ in range(_DRAW_ATTEMPTS):
        h = stick_breaking_h(pars[0], pars[1], rng)
        if n - (len(h) - 1) >= MIN_TEST_LENGTH:
            return h
    raise InvalidInputError(
        f"projection {index + 1}: beta{pars} directions keep spanning more than "
        f"the {n} available observations"
    )


def rp_test(s, cfg: ProjectionConfig) -> RpResult:
    """Run the random-projection Gaussianity test.

    Within each half of the projections (one half per beta law), the
    odd-positioned projections are checked with the skewness-kurtosis test
    and the even-positioned ones with the characteristic-function test;
    the k raw p-values are then FDR-combined.  Projection ``i`` draws from
    sub-stream ``i`` of the configured seed, so results are reproducible
    at any degree of parallelism.
    """
    s = Series(_normalized(s)[0])
    n = len(s)
    half = cfg.k // 2
    per_projection = []
    for i in range(cfg.k):
        pars = cfg.pars1 if i < half else cfg.pars2
        position = (i % half) + 1
        rng = cfg.seed.substream(i)
        h = _draw_fitting_projection(pars, rng, n, i)
        projected = project_series(s, h)
        label, test = ("lobato", lobato_test) if position % 2 == 1 else ("epps", epps_test)
        try:
            res = test(projected)
        except NortsError as exc:
            raise type(exc)(f"projection {i + 1}: {exc}") from exc
        per_projection.append((label, float(res.statistic), float(res.p_value)))

    def average(label: str) -> float:
        stats = [stat for name, stat, _ in per_projection if name == label]
        return float(np.mean(stats)) if stats else float("nan")

    return RpResult(
        k=cfg.k,
        avg_lobato=average("lobato"),
        avg_epps=average("epps"),
        p_value=fdr_combine([p for *_, p in per_projection]),
        per_projection=tuple(per_projection),
    )
