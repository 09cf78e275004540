"""Random-projection test of full process Gaussianity.

Random directions in the space of square-summable sequences are drawn by a
beta stick-breaking construction; the process is projected onto each
direction, the marginal normality tests are applied to the projections,
and the resulting p-values are combined with a false-discovery-rate
adjustment that is valid under arbitrary dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .dist import InnovationLaw, _quantile
from .epps import _epps_rows, _lockstep
from .errors import InvalidInputError, NortsError, NumericDegeneracyError, _caught
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
# Chunks of uniforms that rp_test draws for every direction at once; a
# beta(2, 7) direction takes 60 to 100 sticks, within four chunks.
_BATCH_CHUNKS = 4
# Chunks that a direction drawing past the batch inverts per quantile call:
# redraws near rp's minimum length take a few chunks each, and a call to a
# quantile kernel has a fixed cost.
_MORE_CHUNKS = 32
_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ProjectionConfig:
    """Configuration for :func:`rp_test`.

    Half of the ``k`` projections are drawn with beta parameters ``pars1``
    (spread over many lags by default) and half with ``pars2``
    (concentrated near lag zero by default).

    Each projected series must keep ``MIN_TEST_LENGTH`` points, and a
    direction from the default ``pars1`` spans about 60 to 100 lags (the
    sticks it takes to reach ``TRUNCATION_MASS``; median 77).  So rp needs
    about 80 observations: at the default ``k``, a series of 72 points or
    fewer almost surely fails with :class:`InvalidInputError` ("directions
    keep spanning more than the n available observations"), and one of 80
    or more runs.
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
        if abs(norm2 - 1.0) > _UNIT_NORM_TOL:
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


def _directions(law: InnovationLaw, sources, n: int | None = None) -> list:
    """Beta stick-breaking directions, one per iterator of ``sources``.

    Direction r breaks sticks w_j = v_j * prod(1 - v_i, i < j), the v_j
    being the ``law`` quantiles that ``sources[r]`` yields in chunks of
    ``_STICK_CHUNK``.  Sticks are taken until their total reaches
    ``TRUNCATION_MASS``, and the retained sticks are renormalized and
    square-rooted so the weights have unit l2 norm.  A direction uses whole
    chunks, so a redraw starts at the next chunk.  With ``n``, a direction
    spanning so many lags that fewer than ``MIN_TEST_LENGTH`` of the ``n``
    points would remain is redrawn, up to ``_DRAW_ATTEMPTS`` times: the
    direction law is independent of the data, so conditioning on a usable
    length keeps the tests exact under the null.

    Each direction is a generator run under :func:`norts.epps._lockstep`:
    each round takes the next chunk of every direction still drawing and
    accumulates its sticks and their total with ``np.cumprod`` and
    ``np.cumsum``, left to right as one stick at a time does.  A redraw
    waits until every earlier direction is done, so that where an earlier
    one fails, no later one has drawn past its first attempt.  Returns, in
    order, each direction's weights up to and including the first whose
    draw fails, whose entry is a :class:`NumericDegeneracyError` where
    ``STICK_CAP`` sticks do not reach the mass, or None where every attempt
    spanned too many lags; the directions after it draw no further chunk.
    """
    failed = len(sources)  # the first direction whose draw failed
    done = [False] * len(sources)

    def draw(r, chunks):
        nonlocal failed
        try:
            for attempt in range(_DRAW_ATTEMPTS):
                remaining, total, parts, hit = 1.0, 0.0, [], 0
                while not hit:
                    if failed < r:
                        return None
                    if attempt and not all(done[:r]):
                        yield None  # a redraw waits for the earlier directions
                        continue
                    w, hit, remaining, total = yield next(chunks), remaining, total
                    parts.append(w)
                    # the number of sticks this attempt takes if the mass is
                    # reached in this chunk; one more than it holds if it is not
                    size = _STICK_CHUNK * (len(parts) - 1) + (hit or _STICK_CHUNK + 1)
                    if size > STICK_CAP + 1:
                        failed = min(failed, r)
                        return NumericDegeneracyError(
                            f"stick-breaking with {law.label} failed to reach mass "
                            f"{TRUNCATION_MASS} within {STICK_CAP} sticks"
                        )
                if n is None or n - (size - 1) >= MIN_TEST_LENGTH:
                    weights = np.concatenate(parts)[:size]
                    return np.sqrt(weights / weights.sum())
            failed = min(failed, r)
            return None
        finally:
            done[r] = True

    def step(ids, asks):
        drawing = [k for k, ask in enumerate(asks) if ask is not None]
        v, remaining, total = zip(*(asks[k] for k in drawing))
        v = np.array(v)
        left = np.empty((len(drawing), _STICK_CHUNK + 1))
        left[:, 0] = remaining
        np.subtract(1.0, v, out=left[:, 1:])
        np.cumprod(left, axis=1, out=left)
        w = v * left[:, :-1]
        sums = np.empty_like(left)
        sums[:, 0] = total
        sums[:, 1:] = w
        np.cumsum(sums, axis=1, out=sums)
        # column 0 holds the total so far, below the mass: argmax 0 means no hit
        hits = (sums >= TRUNCATION_MASS).argmax(axis=1).tolist()
        replies = [None] * len(asks)
        for k, reply in zip(drawing, zip(w, hits, left[:, -1].tolist(), sums[:, -1].tolist())):
            replies[k] = reply
        return replies

    return _lockstep([draw(r, chunks) for r, chunks in enumerate(sources)], step)[: failed + 1]


def stick_breaking_h(a: float, b: float, rng: RngStream) -> ProjectionVector:
    """Draw a random direction by beta stick-breaking from ``rng``.

    Sticks w_j = v_j * prod(1 - v_i, i < j) with v_j ~ Beta(a, b) are
    accumulated until their total reaches ``TRUNCATION_MASS``; the retained
    sticks are renormalized and square-rooted so the weights have unit l2
    norm.  The uniforms are drawn ``_STICK_CHUNK`` at a time, and the
    direction is :func:`_directions`'s on a batch of one.
    """
    law = InnovationLaw.beta(a, b)
    chunks = (_quantile(law, rng.uniform(_STICK_CHUNK)) for _ in repeat(None))
    [weights] = _directions(law, [chunks])
    if isinstance(weights, NortsError):
        raise weights
    return ProjectionVector(weights)


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


def _half_directions(seed: RngStream, indices: range, pars: tuple[float, float], n: int) -> list:
    """The directions of projections ``indices``, all drawn with beta ``pars``:
    projection i breaks its sticks from sub-stream i of ``seed``.

    The first ``_BATCH_CHUNKS`` chunks of every sub-stream come from one
    :meth:`RngStream.uniform_rows` call and one quantile call; a row that
    needs more continues its own sub-stream past them, ``_MORE_CHUNKS``
    chunks per quantile call.  :class:`ProjectionVector`'s checks run on all
    the directions at once, and a direction that fails them gets the error
    :class:`ProjectionVector` raises.  Returns, in order, the weights of each
    projection up to the first whose draw or check fails, and that one's error.
    """
    law = InnovationLaw.beta(*pars)
    first = _quantile(law, seed.uniform_rows(indices, _BATCH_CHUNKS * _STICK_CHUNK))

    def more(r):
        stream = seed.substream(indices[r])
        stream.uniform(first.shape[1])  # the uniforms the batch drew
        while True:
            v = _quantile(law, stream.uniform(_MORE_CHUNKS * _STICK_CHUNK))
            yield from v.reshape(-1, _STICK_CHUNK)

    sources = [chain(row.reshape(-1, _STICK_CHUNK), more(r)) for r, row in enumerate(first)]
    out = _directions(law, sources, n)
    if out[-1] is None:
        out[-1] = InvalidInputError(
            f"projection {indices[len(out) - 1] + 1}: beta{pars} directions keep spanning "
            f"more than the {n} available observations"
        )
    # every row but a failed last one holds weights
    drawn = [weights for weights in out if isinstance(weights, np.ndarray)]
    if drawn:
        flat = np.concatenate(drawn)
        starts = np.cumsum([0] + [weights.size for weights in drawn[:-1]])
        invalid = np.logical_or.reduceat(~np.isfinite(flat) | (flat < 0), starts)
        # half ProjectionVector's tolerance, so that a sum in another order
        # cannot pass a direction that the check itself fails
        off = np.abs(np.add.reduceat(flat * flat, starts) - 1.0) > _UNIT_NORM_TOL / 2
        for r in np.flatnonzero(invalid | off):
            if isinstance(exc := _caught(ProjectionVector, out[r]), NortsError):
                return out[:r] + [exc]
    return out


def rp_test(s, cfg: ProjectionConfig) -> RpResult:
    """Run the random-projection Gaussianity test.

    Within each half of the projections (one half per beta law), the
    odd-positioned projections are checked with the skewness-kurtosis test
    and the even-positioned ones with the characteristic-function test;
    the k raw p-values are then FDR-combined.  Projection ``i`` draws from
    sub-stream ``i`` of the configured seed, so results are reproducible
    at any degree of parallelism.

    The per-projection work runs in two batches: each half's directions are
    drawn together (:func:`_half_directions`), and the characteristic-function
    projections are tested in one :func:`norts.epps._epps_rows` call.  Both
    give what one projection at a time gives, bit for bit.  Every projection
    before the first failed direction is tested, and the error raised is that
    of the lowest-numbered failure.
    """
    s, _ = _normalized(s)
    half = cfg.k // 2
    drawn, failed = [], None  # failed: the error of the first failed direction
    for indices, pars in ((range(half), cfg.pars1), (range(half, cfg.k), cfg.pars2)):
        drawn += _half_directions(cfg.seed, indices, pars, s.size)
        if isinstance(drawn[-1], NortsError):
            failed = drawn.pop()
            break
    projected = [np.convolve(s, w, mode="valid") for w in drawn]
    names = [("lobato", "epps")[i % half % 2] for i in range(len(projected))]
    epps = iter(_epps_rows(x for x, name in zip(projected, names) if name == "epps"))
    per_projection = []
    for i, (x, name) in enumerate(zip(projected, names)):
        res = next(epps) if name == "epps" else _caught(lobato_test, x)
        if isinstance(res, NortsError):
            raise type(res)(f"projection {i + 1}: {res}") from res
        per_projection.append((name, float(res.statistic), float(res.p_value)))
    if failed is not None:
        raise failed

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
