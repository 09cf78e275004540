"""Monte-Carlo rejection-rate study over AR(1) processes.

Each scenario simulates AR(1) paths with configurable innovation law and
coefficient, applies one of the normality tests, and reports the fraction
of trials whose p-value falls below the significance level.  Trial j of a
scenario simulates from sub-stream (j, 0) of the scenario stream and tests
with sub-stream (j, 1), so results are identical at any worker count and
the grid runner assigns every scenario a stream derived from its position
in the canonical grid rather than from enumeration order.

Trial j inverts and filters uniforms ``BURN_IN - k`` to ``BURN_IN + n`` of
its stream, where k = :func:`_burn_in` (phi) is the smallest k >= 0 with
|phi|**k <= 2**-53, capped at ``BURN_IN`` (0 at phi = 0, 27 at |phi| =
0.25, 41 at 0.4, ``BURN_IN`` from |phi| = 0.93): an innovation further back
would enter the kept path with a weight below half an ulp.  The uniforms
before them are never drawn: Philox is counter-based, so the batched draw
starts each row at the counter of uniform ``BURN_IN - k``.  So trial j is
exactly::

    s = stream.substream(j).substream(0)
    s.uniform(BURN_IN - k)  # skipped
    simulate_arma(ArmaSpec((phi,) if phi else (), innovation=law), n, k, s)

followed by the method on that series with ``stream.substream(j)
.substream(1)``.  Against a full ``BURN_IN`` start, the kept path differs
at most in its last bits (below 1e-13 of its standard deviation); at
phi = 0 and |phi| >= 0.93 it is the same path.

Each cell's trials run in chunks of ceil(trials / workers), in this process
at 1 worker and in one process pool per run above it.  A chunk is simulated
as one matrix, in row blocks of a bounded size: one batched uniform draw
(:meth:`RngStream.uniform_rows`, bit for bit the per-trial streams from
their uniform ``BURN_IN - k`` on), one inverse-CDF call and one ARMA filter
along the rows.  The method's batch entry, the one ``test_dispatch`` runs
on one series, gives each trial's result or error: lobato and epps score
the block at once, rp and vavra trial by trial as the results are read,
so a chunk without ``skip_failures`` stops at its first failure.  The
optional timing column is the wall time since the previous cell's result
divided by the cell's trials, which above 1 worker, where cells overlap,
is not the cell's own time.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dist import InnovationLaw, _quantile
from .errors import InvalidInputError, NortsError
from .report import METHODS, NORMALITY_METHODS, _check_alpha, _method
from .rng import RngStream
from .series import MIN_TEST_LENGTH, _arma_filter

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
    "reproduce_tables",
    "TABLE_METHODS",
    "TABLE_LAWS",
    "TABLE_PHIS",
]

# In method-table order: a method's index here selects its sub-stream.
TABLE_METHODS = NORMALITY_METHODS
TABLE_LAWS = (
    InnovationLaw.normal(),
    InnovationLaw.lognormal(),
    InnovationLaw.student_t(3),
    InnovationLaw.chi_squared(10),
    InnovationLaw.beta(7, 1),
)
TABLE_PHIS = (-0.4, -0.25, 0.0, 0.25, 0.4)
# Uniforms drawn before each trial's series, and the cap of its burn-in.
BURN_IN = 500


def _burn_in(phi: float) -> int:
    """The smallest k >= 0 with |phi|**k <= 2**-53, capped at ``BURN_IN``;
    0 at phi = 0, where the path has no memory.  The powers are exact
    integer ratios, so the boundary (|phi| = 0.5 gives 53) is not left to
    a rounded logarithm."""
    if phi == 0.0:
        return 0
    p, q = abs(phi).as_integer_ratio()
    num = den = 1  # |phi|**k == num / den
    k = 0
    while num << 53 > den and k < BURN_IN:
        num, den, k = num * p, den * q, k + 1
    return k


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the rejection-rate study."""

    phi: float
    law: InnovationLaw
    n: int
    method: str
    method_options: dict = field(default_factory=dict)
    trials: int = 200
    alpha: float = 0.05

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise InvalidInputError(f"AR(1) coefficient must satisfy |phi| < 1, got {self.phi}")
        _check_alpha(self.alpha)
        if int(self.trials) < 1:
            raise InvalidInputError("trials must be positive")
        if int(self.n) < MIN_TEST_LENGTH:
            raise InvalidInputError(f"series length must be at least {MIN_TEST_LENGTH}")
        _method(self.method, self.method_options, among=TABLE_METHODS)
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "method_options", dict(self.method_options))


@dataclass(frozen=True)
class ScenarioResult:
    rate: float
    rejections: int
    trials_used: int
    failures: tuple[str, ...]
    seconds_per_trial: float


def _trial_batch(args):
    spec, stream, indices, skip_failures = args
    ar = (spec.phi,) if spec.phi != 0.0 else ()
    k = _burn_in(spec.phi)
    batch = METHODS[spec.method].batch
    out = []
    # trial j simulates from sub-stream (j, 0) and tests with (j, 1)
    for trials, u in stream._uniform_blocks(indices, k + spec.n, tail=(0,), start=BURN_IN - k):
        paths = _arma_filter(_quantile(spec.law, u), ar)[:, -spec.n :]
        del u  # only the paths stay alive while they are scored
        streams = (stream.substream(j).substream(1) for j in trials)
        for j, r in zip(trials, batch(paths, streams, **spec.method_options)):
            failed = isinstance(r, NortsError)
            out.append((j, None, r) if failed else (j, r.p_value, None))
            if failed and not skip_failures:
                return out
    return out


def _check_workers(workers) -> int:
    workers = int(workers)
    if workers < 1:
        raise InvalidInputError(f"workers must be positive, got {workers}")
    return workers


def _scenarios(cells, workers: int, skip_failures: bool):
    """Yield the results of ``cells``, (spec, stream) pairs, in order; the
    pool is shut down with its pending chunks cancelled on any exit."""
    jobs = []  # the chunks of each cell
    for spec, stream in cells:
        indices, size = list(range(spec.trials)), -(-spec.trials // workers)
        jobs.append([(spec, stream, indices[i : i + size], skip_failures)
                     for i in range(0, spec.trials, size)])
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        batches = (pool.map if pool else map)(_trial_batch, itertools.chain.from_iterable(jobs))
        done = time.perf_counter()
        for (spec, _), chunks in zip(cells, jobs):
            results = sorted(r for batch in itertools.islice(batches, len(chunks)) for r in batch)
            errors = [(j, exc) for j, _, exc in results if exc is not None]
            failures = tuple(f"trial {j}: {exc}" for j, exc in errors)
            pvalues = np.array([p for _, p, exc in results if exc is None])
            used = int(pvalues.size)
            if errors and not (skip_failures and used):
                exc = errors[0][1]
                what = "all trials of the scenario failed" if skip_failures else "scenario failed"
                raise type(exc)(f"{what}: {failures[0]}") from exc
            rejections = int(np.sum(pvalues < spec.alpha))
            started, done = done, time.perf_counter()
            yield ScenarioResult(rejections / used, rejections, used, failures,
                                 (done - started) / spec.trials)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_scenario(spec: ScenarioSpec, rng: RngStream, workers: int = 1,
                 skip_failures: bool = False) -> ScenarioResult:
    """Estimate the rejection rate of one scenario.

    Failed trials abort the scenario, re-raising the first failure's error
    class, unless ``skip_failures`` is set, in which case they are reported
    and excluded from the denominator; if every trial failed, the first
    failure is re-raised all the same.
    """
    [result] = _scenarios([(spec, rng)], _check_workers(workers), skip_failures)
    return result


@dataclass(frozen=True)
class TableRow:
    method: str
    law: str
    phi: float
    n: int
    rate: float
    trials: int
    seconds_per_trial: float


_CSV_FIELDS = ("method", "law", "phi", "n", "rate", "trials")


def _format_row(row: TableRow, timing: bool) -> list[str]:
    cells = [row.method, row.law, f"{row.phi:g}", str(row.n), f"{row.rate:.6f}", str(row.trials)]
    if timing:
        cells.append(f"{row.seconds_per_trial:.6f}")
    return cells


def reproduce_tables(
    methods,
    ns,
    m: int,
    out,
    seed: int = 0,
    phis=TABLE_PHIS,
    laws=TABLE_LAWS,
    alpha: float = 0.05,
    method_options: dict | None = None,
    workers: int = 1,
    skip_failures: bool = False,
    timing: bool = False,
    progress=None,
) -> list[TableRow]:
    """Run the full rejection-rate grid, stream it to a CSV file and return
    its rows in the order they ran.

    Every scenario is validated before any runs, and ``out`` is opened only
    once the first scenario has its result, so a run that fails before then
    leaves an existing file as it was.  Rows are then written and flushed
    scenario by scenario, so an interrupted run leaves every completed cell
    on disk.  ``method_options`` maps a method name to keyword options for
    its config (e.g. ``{"rp": {"k": 10}}``).  The per-trial timing column is
    optional because wall times are not reproducible across runs.
    """
    workers = _check_workers(workers)
    method_options = dict(method_options or {})
    master = RngStream(seed)
    # (spec, stream) of every cell, in grid order; each spec validates its
    # method before the method's index selects the stream
    cells = [
        (
            ScenarioSpec(phi=phi, law=law, n=n, method=mth, trials=m, alpha=alpha,
                         method_options=method_options.get(mth, {})),
            master.substream(TABLE_METHODS.index(mth)).substream(li).substream(pi).substream(n),
        )
        for mth in methods
        for li, law in enumerate(laws)
        for pi, phi in enumerate(phis)
        for n in ns
    ]

    rows = []
    with contextlib.closing(_scenarios(cells, workers, skip_failures)) as results:
        first = list(itertools.islice(results, 1))  # runs before out is opened
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS + (("seconds_per_trial",) if timing else ()))
            for r, (spec, _) in zip(itertools.chain(first, results), cells):
                row = TableRow(spec.method, spec.law.label, spec.phi, spec.n, r.rate,
                               r.trials_used, r.seconds_per_trial)
                rows.append(row)
                writer.writerow(_format_row(row, timing))
                fh.flush()
                if progress is not None:
                    progress(row)
    return rows
