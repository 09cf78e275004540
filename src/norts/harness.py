"""Monte-Carlo rejection-rate study over AR(1) processes.

Each scenario simulates AR(1) paths with configurable innovation law and
coefficient, applies one of the normality tests, and reports the fraction
of trials whose p-value falls below the significance level.  Trial j of a
scenario consumes sub-stream j of the scenario stream, so results are
identical at any worker count and the grid runner assigns every scenario a
stream derived from its position in the canonical grid rather than from
enumeration order.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dist import InnovationLaw
from .errors import InvalidInputError, NortsError
from .report import NORMALITY_METHODS, test_dispatch
from .rng import RngStream
from .series import ArmaSpec, simulate_arma

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "RejectionTable",
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


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the rejection-rate study."""

    phi: float
    law: InnovationLaw
    n: int
    method: str
    method_options: dict = field(default_factory=dict)
    burn_in: int = 500
    trials: int = 200
    alpha: float = 0.05

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise InvalidInputError(f"AR(1) coefficient must satisfy |phi| < 1, got {self.phi}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie in (0, 1)")
        if int(self.trials) < 1:
            raise InvalidInputError("trials must be positive")
        if int(self.n) < 10:
            raise InvalidInputError("series length must be at least 10")
        if int(self.burn_in) < 0:
            raise InvalidInputError("burn-in must be non-negative")
        if self.method not in TABLE_METHODS:
            raise InvalidInputError(
                f"unknown method {self.method!r}; expected one of {TABLE_METHODS}"
            )
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "burn_in", int(self.burn_in))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "method_options", dict(self.method_options))


@dataclass(frozen=True)
class ScenarioResult:
    rate: float
    rejections: int
    trials_used: int
    failures: tuple[str, ...]
    seconds_per_trial: float


def _trial_pvalue(spec: ScenarioSpec, stream: RngStream) -> float:
    sim_rng = stream.substream(0)
    test_rng = stream.substream(1)
    ar = (spec.phi,) if spec.phi != 0.0 else ()
    series = simulate_arma(ArmaSpec(ar=ar, innovation=spec.law), spec.n, spec.burn_in, sim_rng)
    report = test_dispatch(
        spec.method, series, rng=test_rng, warn_stationarity=False, **spec.method_options
    )
    return report.p_value


def _trial_batch(args):
    spec, scenario_stream, indices, skip_failures = args
    out = []
    for j in indices:
        try:
            out.append((j, _trial_pvalue(spec, scenario_stream.substream(j)), None))
        except NortsError as exc:
            out.append((j, None, exc))
            if not skip_failures:
                break
    return out


def run_scenario(
    spec: ScenarioSpec,
    rng: RngStream,
    workers: int = 1,
    skip_failures: bool = False,
) -> ScenarioResult:
    """Estimate the rejection rate of one scenario.

    Failed trials abort the scenario, re-raising the first failure's error
    class, unless ``skip_failures`` is set, in which case they are reported
    and excluded from the denominator; if every trial failed, the first
    failure is re-raised all the same.
    """
    workers = max(1, int(workers))
    started = time.perf_counter()
    indices = list(range(spec.trials))
    if workers == 1:
        batches = [_trial_batch((spec, rng, indices, skip_failures))]
    else:
        chunk = max(1, spec.trials // (workers * 4))
        jobs = [
            (spec, rng, indices[i : i + chunk], skip_failures)
            for i in range(0, spec.trials, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_trial_batch, jobs))
    results = sorted(r for batch in batches for r in batch)
    errors = [(j, exc) for j, _, exc in results if exc is not None]
    failures = tuple(f"trial {j}: {exc}" for j, exc in errors)
    pvalues = np.array([p for _, p, exc in results if exc is None])
    used = int(pvalues.size)
    if errors and not (skip_failures and used):
        exc = errors[0][1]
        what = "all trials of the scenario failed" if skip_failures else "scenario failed"
        raise type(exc)(f"{what}: {failures[0]}") from exc
    rejections = int(np.sum(pvalues < spec.alpha))
    elapsed = time.perf_counter() - started
    return ScenarioResult(
        rate=rejections / used,
        rejections=rejections,
        trials_used=used,
        failures=failures,
        seconds_per_trial=elapsed / spec.trials,
    )


@dataclass(frozen=True)
class TableRow:
    method: str
    law: str
    phi: float
    n: int
    rate: float
    trials: int
    seconds_per_trial: float


@dataclass
class RejectionTable:
    """Rows of the rejection-rate grid, in the order they ran."""

    rows: list[TableRow] = field(default_factory=list)


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
) -> RejectionTable:
    """Run the full rejection-rate grid and stream it to a CSV file.

    Rows are written and flushed scenario by scenario, so an interrupted
    run leaves every completed cell on disk.  ``method_options`` maps a
    method name to keyword options for its config (e.g. ``{"rp": {"k":
    10}}``).  The per-trial timing column is optional because wall times
    are not reproducible across runs.
    """
    methods = list(methods)
    for mth in methods:
        if mth not in TABLE_METHODS:
            raise InvalidInputError(f"unknown method {mth!r}; expected one of {TABLE_METHODS}")
    method_options = dict(method_options or {})
    master = RngStream(seed)
    table = RejectionTable()
    header = _CSV_FIELDS + (("seconds_per_trial",) if timing else ())
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        fh.flush()
        for mth in methods:
            mi = TABLE_METHODS.index(mth)
            for li, law in enumerate(laws):
                for pi, phi in enumerate(phis):
                    for n in ns:
                        spec = ScenarioSpec(
                            phi=phi,
                            law=law,
                            n=n,
                            method=mth,
                            method_options=method_options.get(mth, {}),
                            trials=m,
                            alpha=alpha,
                        )
                        stream = master.substream(mi).substream(li).substream(pi).substream(n)
                        result = run_scenario(spec, stream, workers=workers, skip_failures=skip_failures)
                        row = TableRow(
                            method=mth,
                            law=law.label,
                            phi=float(phi),
                            n=int(n),
                            rate=result.rate,
                            trials=result.trials_used,
                            seconds_per_trial=result.seconds_per_trial,
                        )
                        table.rows.append(row)
                        writer.writerow(_format_row(row, timing))
                        fh.flush()
                        if progress is not None:
                            progress(row)
    return table
