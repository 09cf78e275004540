"""Method table, uniform test reports, the residual-check procedure and
plot-data files.

:data:`METHODS` is the one table of the seven tests: for each name it holds
the batch entry, the report label, how to read the statistics, degrees of
freedom and notes off a result, the alternative-hypothesis line and the
keyword options the entry takes.  :func:`test_dispatch` (on one series),
the CLI and the Monte-Carlo harness (on a block of trials) all run methods
through it, one check (``_method``) validates a method's name and options
for all of them, and the method-name tuples are derived from it.

Every test outcome is rendered through :class:`TestReport`, which carries
the method label, named statistics, degrees of freedom where defined, the
p-value and the alternative-hypothesis line.  Text output follows the
classic hypothesis-test print layout; JSON output carries the same fields
with every float at full precision.
"""

from __future__ import annotations

import csv
import json
import secrets
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dist import normal_ppf
from .epps import Lambda, _epps_rows
from .errors import InvalidInputError, NortsError, _caught, _one_result
from .lobato import _lobato_rows
from .rng import RngStream
from .rp import ProjectionConfig, rp_test
from .series import as_series, autocovariances
from .stationarity import MIN_UNIT_ROOT_LENGTH, adf_test, kpss_test, ljung_box
from .vavra import SieveConfig, _levinson, vavra_test

__all__ = [
    "TestReport",
    "CheckConfig",
    "CheckReport",
    "METHODS",
    "NORMALITY_METHODS",
    "UNIT_ROOT_METHODS",
    "test_dispatch",
    "check",
    "render_text",
    "render_json",
    "render_check_text",
    "render_check_json",
]

GAUSSIAN_ALTERNATIVE = "{name} does not follow a Gaussian Process"


@dataclass(frozen=True)
class TestReport:
    """Universal rendering of a hypothesis-test outcome."""

    method: str
    statistics: dict[str, float]
    p_value: float
    df: int | None = None
    alternative: str = ""
    data_name: str = "x"
    notes: tuple[str, ...] = ()


def _fmt_stat(v: float) -> str:
    return f"{v:.5g}"


def _fmt_p(p: float) -> str:
    return f"{p:.4g}"


def render_text(report: TestReport) -> str:
    """Classic hypothesis-test text block."""
    parts = [f"{k} = {_fmt_stat(v)}" for k, v in report.statistics.items()]
    if report.df is not None:
        parts.append(f"df = {report.df}")
    parts.append(f"p-value = {_fmt_p(report.p_value)}")
    lines = [
        "",
        f"\t{report.method}",
        "",
        f"data:  {report.data_name}",
        ", ".join(parts),
        f"alternative hypothesis: {report.alternative}",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_json(report: TestReport) -> str:
    return json.dumps(asdict(report), indent=2)


def _auto_stream(rng: RngStream | None) -> tuple[RngStream, tuple[str, ...]]:
    if rng is not None:
        return rng, ()
    seed = secrets.randbits(63)
    return RngStream(seed), (f"seed: {seed} (auto-generated; pass it back to reproduce)",)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must lie in (0, 1)")


def _stationary(method: str, p_value: float, alpha: float) -> bool:
    """Whether the named pre-test speaks for stationarity at level ``alpha``.

    adf's alternative is stationarity; kpss and lb have it (or no serial
    correlation) as their null.
    """
    return (p_value < alpha) == (method == "adf")


def _stationarity_note(s, alpha: float) -> tuple[str, ...]:
    # advisory only: a pre-check that cannot run becomes a note, not a failure
    if len(s) < MIN_UNIT_ROOT_LENGTH:
        return ()
    pre = _caught(adf_test, s)
    if isinstance(pre, NortsError):
        return (f"warning: augmented Dickey-Fuller pre-check failed: {pre}",)
    if not _stationary("adf", pre.p_value, alpha):
        return (
            "warning: augmented Dickey-Fuller does not reject a unit root "
            f"(p-value = {_fmt_p(pre.p_value)}); the series may be non-stationary",
        )
    return ()


def _epps_batch(block, streams, lam=None) -> list:
    if lam is not None and not isinstance(lam, Lambda):
        lam = _caught(Lambda, tuple(lam))
    return [lam] * len(block) if isinstance(lam, NortsError) else _epps_rows(block, lam)


def _each_row(test) -> Callable:
    """A batch entry that runs ``test(row, stream, **options)`` on one row at
    a time, when the caller asks for its result."""
    return lambda block, streams, **options: (
        _caught(test, row, rng, **options) for row, rng in zip(block, streams)
    )


def _epps_notes(r) -> tuple[str, ...]:
    return () if r.converged else ("optimizer stopped before its convergence test held",)


def _table_edge_notes(r) -> tuple[str, ...]:
    return ("p-value interpolated at a critical-value table edge",) if r.bounded else ()


@dataclass(frozen=True)
class Method:
    """One row of :data:`METHODS`.

    ``batch(block, streams, **options)`` runs the test on each row of a 2-d
    array of finite values and returns, in row order, each row's result
    (with a ``p_value``) or the :class:`NortsError` the test raises on it;
    ``streams`` gives one :class:`RngStream` per row, which only seeded
    methods draw from.  ``options`` names the keyword options it accepts.
    The report title is ``label``; ``statistics``, ``df`` and ``notes`` read
    a result.  ``alternative`` is the alternative-hypothesis line, with
    ``{name}`` standing for the data name.  Unit-root methods are the
    stationarity pre-tests.
    """

    label: str
    batch: Callable
    statistics: Callable
    alternative: str
    options: tuple[str, ...] = ()
    df: Callable = lambda r: None
    notes: Callable = lambda r: ()
    seeded: bool = False
    unit_root: bool = False


# Batch entries look their test up by name at call time, so rebinding one
# in this module (for tracing or in tests) reaches every caller.
# The normality methods come first, in the order whose index selects a
# method's sub-stream in the Monte-Carlo grid (see harness.reproduce_tables).
METHODS = {
    "lobato": Method(
        "Lobato and Velasco's test",
        lambda block, streams: _lobato_rows(block),
        lambda r: {"lobato": r.statistic},
        GAUSSIAN_ALTERNATIVE,
        df=lambda r: r.df,
    ),
    "epps": Method(
        "Epps test",
        _epps_batch,
        lambda r: {"epps": r.statistic},
        GAUSSIAN_ALTERNATIVE,
        options=("lam",),
        df=lambda r: r.df,
        notes=_epps_notes,
    ),
    "rp": Method(
        "k random projections test",
        _each_row(lambda s, rng, **options: rp_test(s, ProjectionConfig(seed=rng, **options))),
        lambda r: {
            name: float(v)
            for name, v in (("k", r.k), ("lobato", r.avg_lobato), ("epps", r.avg_epps))
            if not np.isnan(v)  # with k = 2 no projection is an epps one
        },
        GAUSSIAN_ALTERNATIVE,
        options=("k", "pars1", "pars2"),
        seeded=True,
    ),
    "vavra": Method(
        "Psaradakis-Vavra test",
        _each_row(lambda s, rng, **options: vavra_test(s, SieveConfig(seed=rng, **options))),
        lambda r: {"A": r.ad_observed, "bootstrap mean": r.ad_bootstrap_mean},
        GAUSSIAN_ALTERNATIVE,
        options=("replications", "max_order", "bootstrap"),
        seeded=True,
    ),
    "adf": Method(
        "Augmented Dickey-Fuller Test",
        _each_row(lambda s, rng: adf_test(s)),
        lambda r: {"Dickey-Fuller": r.statistic, "Lag order": float(r.lag_order)},
        "stationary",
        notes=_table_edge_notes,
        unit_root=True,
    ),
    "kpss": Method(
        "KPSS Test for Level Stationarity",
        _each_row(lambda s, rng: kpss_test(s)),
        lambda r: {"KPSS Level": r.statistic, "Truncation lag": float(r.lag_order)},
        "non-stationary",
        notes=_table_edge_notes,
        unit_root=True,
    ),
    "lb": Method(
        "Ljung-Box",
        _each_row(lambda s, rng, lags=10: ljung_box(s, lags=int(lags))),
        lambda r: {"X-squared": r.statistic},
        "serial correlation present",
        options=("lags",),
        df=lambda r: r.lag_order,
        unit_root=True,
    ),
}
NORMALITY_METHODS = tuple(name for name, m in METHODS.items() if not m.unit_root)
UNIT_ROOT_METHODS = tuple(name for name, m in METHODS.items() if m.unit_root)


def _method(name: str, options=(), among=tuple(METHODS), kind: str = "method") -> Method:
    """The :data:`METHODS` row of ``name``, after checking that ``name`` is
    one of ``among`` (a ``kind`` for the message) and that the method takes
    every key of ``options``; either failure is an input error."""
    if name not in among:
        raise InvalidInputError(f"unknown {kind} {name!r}; expected one of {among}")
    spec = METHODS[name]
    unknown = sorted(set(options) - set(spec.options))
    if unknown:
        raise InvalidInputError(
            f"method {name!r} takes no option {unknown[0]!r}; its options are {spec.options}"
        )
    return spec


def test_dispatch(
    method: str,
    s,
    *,
    alpha: float = 0.05,
    rng: RngStream | None = None,
    data_name: str = "x",
    warn_stationarity: bool = True,
    **options,
) -> TestReport:
    """Run the named test on the series and wrap it in a :class:`TestReport`.

    Normality methods are preceded by an advisory ADF check at level
    ``alpha``, which must lie in (0, 1): its warning, or the reason it could
    not run, is attached to the report notes.  Seeded methods draw from
    ``rng`` when given and otherwise auto-seed from entropy, echoing the
    seed in the notes for replay.  ``options`` go to the method's batch entry;
    an option the method does not take is an input error.
    """
    _check_alpha(alpha)
    s = as_series(s)
    spec = _method(method, options)

    notes: tuple[str, ...] = ()
    if warn_stationarity and not spec.unit_root:
        notes = _stationarity_note(s, alpha)
    seed_note: tuple[str, ...] = ()
    if spec.seeded:
        rng, seed_note = _auto_stream(rng)
    r = _one_result(spec.batch(s.values[None], [rng], **options))
    return TestReport(
        method=spec.label,
        statistics=spec.statistics(r),
        p_value=r.p_value,
        df=spec.df(r),
        alternative=spec.alternative.format(name=data_name),
        data_name=data_name,
        notes=notes + spec.notes(r) + seed_note,
    )


# ---------------------------------------------------------------------------
# Residual check report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckConfig:
    unit_root: str = "adf"
    normality: str = "rp"
    alpha: float = 0.05
    seed: RngStream | None = None
    plot_dir: Path | None = None
    normality_options: dict = field(default_factory=dict)

    def __post_init__(self):
        _method(self.unit_root, among=UNIT_ROOT_METHODS, kind="unit-root method")
        _method(self.normality, self.normality_options, NORMALITY_METHODS, "normality method")
        _check_alpha(self.alpha)
        if self.plot_dir is not None:
            object.__setattr__(self, "plot_dir", Path(self.plot_dir))
        object.__setattr__(self, "normality_options", dict(self.normality_options))


@dataclass(frozen=True)
class CheckReport:
    stationarity: TestReport
    stationarity_conclusion: str
    normality: TestReport
    normality_conclusion: str
    verdict: str


def _write_plot_data(s, out: Path) -> None:
    x = s.values
    n = len(s)
    t = np.arange(1, n + 1)
    counts, edges = np.histogram(x, bins="fd")
    max_lag = min(int(np.floor(10.0 * np.log10(n))), n - 1)
    gamma = autocovariances(s, max_lag)
    # partial autocorrelations are the Levinson reflection coefficients
    _, coeffs = _levinson(gamma, max_lag)
    tables = {  # file name -> column name -> column
        "residuals.csv": {"t": t, "value": x},
        "hist.csv": {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts},
        "qq.csv": {
            "theoretical_quantile": normal_ppf((t - 0.5) / n),
            "sample_quantile": np.sort(x),
        },
        "acf.csv": {
            "lag": t[:max_lag],
            "acf": gamma[1:] / gamma[0],
            "pacf": [0.0 if c is None else c[-1] for c in coeffs[1:]],
            "band": np.full(max_lag, 1.96 / np.sqrt(n)),
        },
    }
    for name, columns in tables.items():
        rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
        path = out / name
        try:
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(columns)
                # integer cells as they are, real ones to 10 significant digits
                w.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in r] for r in rows)
        except OSError as exc:
            raise InvalidInputError(f"cannot write plot data to {path}: {exc}") from exc


def check(series, cfg: CheckConfig, data_name: str = "y") -> CheckReport:
    """Run the configured stationarity and normality tests on a residual
    series and, when ``cfg.plot_dir`` is set, write the four plot-data CSV
    files there."""
    s = as_series(series)
    stat_report = test_dispatch(cfg.unit_root, s, data_name=data_name)
    stat_ok = _stationary(cfg.unit_root, stat_report.p_value, cfg.alpha)
    stat_conclusion = f"{data_name} is {'stationary' if stat_ok else 'non-stationary'}"

    norm_report = test_dispatch(
        cfg.normality,
        s,
        rng=cfg.seed,
        data_name=data_name,
        warn_stationarity=False,
        **cfg.normality_options,
    )
    norm_ok = norm_report.p_value >= cfg.alpha
    norm_conclusion = (
        f"{data_name} follows a Gaussian Process"
        if norm_ok
        else f"{data_name} does not follow a Gaussian Process"
    )

    if cfg.plot_dir is not None:
        _write_plot_data(s, cfg.plot_dir)

    if stat_ok and norm_ok:
        verdict = f"{data_name} behaves like a stationary Gaussian process"
    elif stat_ok:
        verdict = f"{data_name} is stationary but not Gaussian"
    elif norm_ok:
        verdict = f"{data_name} is Gaussian-like but may be non-stationary"
    else:
        verdict = f"{data_name} is neither stationary nor Gaussian"

    return CheckReport(
        stationarity=stat_report,
        stationarity_conclusion=stat_conclusion,
        normality=norm_report,
        normality_conclusion=norm_conclusion,
        verdict=verdict,
    )


_BANNER = " *************************************************** "


def render_check_text(report: CheckReport) -> str:
    lines = [
        _BANNER,
        "",
        " Unit root test for stationarity: ",
        render_text(report.stationarity).rstrip("\n"),
        "",
        "",
        f" Conclusion: {report.stationarity_conclusion}",
        "",
        _BANNER,
        "",
        " Goodness of fit test for Gaussian Distribution: ",
        render_text(report.normality).rstrip("\n"),
        "",
        "",
        f" Conclusion: {report.normality_conclusion}",
        "",
        _BANNER,
    ]
    return "\n".join(lines) + "\n"


def render_check_json(report: CheckReport) -> str:
    return json.dumps(asdict(report), indent=2)

