"""Method table, uniform test reports, the residual-check procedure and
plot-data files.

:data:`METHODS` is the one table of the seven tests: for each name it holds
the runner, the report label, how to read the statistics, degrees of
freedom and notes off the result, the alternative-hypothesis line and the
keyword options the runner takes.  :func:`test_dispatch`, the CLI and the
Monte-Carlo harness all resolve methods through it, and the method-name
tuples are derived from it.

Every test outcome is rendered through :class:`TestReport`, which carries
the method label, named statistics, degrees of freedom where defined, the
p-value and the alternative-hypothesis line.  Text output follows the
classic hypothesis-test print layout; JSON output round-trips exactly.
"""

from __future__ import annotations

import csv
import json
import secrets
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dist import normal_ppf
from .epps import Lambda, epps_test
from .errors import InvalidInputError
from .lobato import lobato_test
from .rng import RngStream
from .rp import ProjectionConfig, rp_test
from .series import as_series, autocovariances
from .stationarity import adf_test, kpss_test, ljung_box
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
    "report_from_json",
    "render_check_text",
    "render_check_json",
    "check_report_from_json",
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


def _report_to_dict(report: TestReport) -> dict:
    return {
        "method": report.method,
        "statistics": dict(report.statistics),
        "p_value": report.p_value,
        "df": report.df,
        "alternative": report.alternative,
        "data_name": report.data_name,
        "notes": list(report.notes),
    }


def _report_from_dict(payload: dict) -> TestReport:
    return TestReport(
        method=payload["method"],
        statistics={k: float(v) for k, v in payload["statistics"].items()},
        p_value=float(payload["p_value"]),
        df=None if payload["df"] is None else int(payload["df"]),
        alternative=payload["alternative"],
        data_name=payload["data_name"],
        notes=tuple(payload["notes"]),
    )


def render_json(report: TestReport) -> str:
    return json.dumps(_report_to_dict(report), indent=2)


def report_from_json(text: str) -> TestReport:
    return _report_from_dict(json.loads(text))


def _auto_stream(rng: RngStream | None) -> tuple[RngStream, tuple[str, ...]]:
    if rng is not None:
        return rng, ()
    seed = secrets.randbits(63)
    return RngStream(seed), (f"seed: {seed} (auto-generated; pass it back to reproduce)",)


def _stationarity_note(s, alpha: float) -> tuple[str, ...]:
    if len(s) < 30:
        return ()
    pre = adf_test(s, alpha=alpha)
    if pre.conclusion == "non-stationary":
        return (
            "warning: augmented Dickey-Fuller does not reject a unit root "
            f"(p-value = {_fmt_p(pre.p_value)}); the series may be non-stationary",
        )
    return ()


def _as_lambda(lam) -> Lambda | None:
    return lam if lam is None or isinstance(lam, Lambda) else Lambda(tuple(lam))


def _epps_notes(r) -> tuple[str, ...]:
    return () if r.converged else ("optimizer stopped before its convergence test held",)


def _table_edge_notes(r) -> tuple[str, ...]:
    return ("p-value interpolated at a critical-value table edge",) if r.bounded else ()


@dataclass(frozen=True)
class Method:
    """One row of :data:`METHODS`.

    ``run(series, rng, alpha, **options)`` returns a result with a
    ``p_value``; ``options`` names the keyword options it accepts.  The
    report title is ``label``; ``statistics``, ``df`` and ``notes`` read the
    result.  ``alternative`` is the alternative-hypothesis line, with
    ``{name}`` standing for the data name.  Seeded methods draw from a
    stream; unit-root methods are the stationarity pre-tests.
    """

    label: str
    run: Callable
    statistics: Callable
    alternative: str
    options: tuple[str, ...] = ()
    df: Callable = lambda r: None
    notes: Callable = lambda r: ()
    seeded: bool = False
    unit_root: bool = False


# Runners look their test up by name at call time, so rebinding a test
# function in this module (for tracing or in tests) reaches every caller.
# The normality methods come first, in the order whose index selects a
# method's sub-stream in the Monte-Carlo grid (see harness.reproduce_tables).
METHODS = {
    "lobato": Method(
        "Lobato and Velasco's test",
        lambda s, rng, alpha: lobato_test(s),
        lambda r: {"lobato": r.statistic},
        GAUSSIAN_ALTERNATIVE,
        df=lambda r: r.df,
    ),
    "epps": Method(
        "Epps test",
        lambda s, rng, alpha, lam=None: epps_test(s, _as_lambda(lam)),
        lambda r: {"epps": r.statistic},
        GAUSSIAN_ALTERNATIVE,
        options=("lam",),
        df=lambda r: r.df,
        notes=_epps_notes,
    ),
    "rp": Method(
        "k random projections test",
        lambda s, rng, alpha, **options: rp_test(s, ProjectionConfig(seed=rng, **options)),
        lambda r: {"k": float(r.k), "lobato": r.avg_lobato, "epps": r.avg_epps},
        GAUSSIAN_ALTERNATIVE,
        options=("k", "pars1", "pars2"),
        seeded=True,
    ),
    "vavra": Method(
        "Psaradakis-Vavra test",
        lambda s, rng, alpha, **options: vavra_test(s, SieveConfig(seed=rng, **options)),
        lambda r: {"A": r.ad_observed, "bootstrap mean": r.ad_bootstrap_mean},
        GAUSSIAN_ALTERNATIVE,
        options=("replications", "max_order", "bootstrap"),
        seeded=True,
    ),
    "adf": Method(
        "Augmented Dickey-Fuller Test",
        lambda s, rng, alpha: adf_test(s, alpha=alpha),
        lambda r: {"Dickey-Fuller": r.statistic, "Lag order": float(r.lag_order)},
        "stationary",
        notes=_table_edge_notes,
        unit_root=True,
    ),
    "kpss": Method(
        "KPSS Test for Level Stationarity",
        lambda s, rng, alpha: kpss_test(s, alpha=alpha),
        lambda r: {"KPSS Level": r.statistic, "Truncation lag": float(r.lag_order)},
        "non-stationary",
        notes=_table_edge_notes,
        unit_root=True,
    ),
    "lb": Method(
        "Ljung-Box",
        lambda s, rng, alpha, lags=10: ljung_box(s, lags=int(lags), alpha=alpha),
        lambda r: {"X-squared": r.statistic},
        "serial correlation present",
        options=("lags",),
        df=lambda r: r.lag_order,
        unit_root=True,
    ),
}
NORMALITY_METHODS = tuple(name for name, m in METHODS.items() if not m.unit_root)
UNIT_ROOT_METHODS = tuple(name for name, m in METHODS.items() if m.unit_root)


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

    Normality methods are preceded by an ADF check whose warning, if any,
    is attached to the report notes.  Seeded methods draw from ``rng``
    when given and otherwise auto-seed from entropy, echoing the seed in
    the notes for replay.  ``options`` go to the method's runner; an
    option the method does not take is an input error.
    """
    s = as_series(s)
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    spec = METHODS[method]
    unknown = sorted(set(options) - set(spec.options))
    if unknown:
        raise InvalidInputError(
            f"method {method!r} takes no option {unknown[0]!r}; its options are {spec.options}"
        )

    notes: tuple[str, ...] = ()
    if warn_stationarity and not spec.unit_root:
        notes = _stationarity_note(s, alpha)
    seed_note: tuple[str, ...] = ()
    if spec.seeded:
        rng, seed_note = _auto_stream(rng)
    r = spec.run(s, rng, alpha, **options)
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
    emit_plot_data: bool = False
    seed: RngStream | None = None
    out_dir: Path = Path(".")
    normality_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.unit_root not in UNIT_ROOT_METHODS:
            raise InvalidInputError(
                f"unknown unit-root method {self.unit_root!r}; expected one of {UNIT_ROOT_METHODS}"
            )
        if self.normality not in NORMALITY_METHODS:
            raise InvalidInputError(
                f"unknown normality method {self.normality!r}; expected one of {NORMALITY_METHODS}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError("alpha must lie in (0, 1)")
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "normality_options", dict(self.normality_options))


@dataclass(frozen=True)
class CheckReport:
    stationarity: TestReport
    stationarity_conclusion: str
    normality: TestReport
    normality_conclusion: str
    verdict: str


def _write_plot_data(s, cfg: CheckConfig) -> None:
    x = s.values
    n = len(s)
    out = cfg.out_dir

    def open_csv(name):
        path = out / name
        try:
            return open(path, "w", newline="")
        except OSError as exc:
            raise InvalidInputError(f"cannot write plot data to {path}: {exc}") from exc

    try:
        with open_csv("residuals.csv") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "value"])
            for t, v in enumerate(x, start=1):
                w.writerow([t, f"{v:.10g}"])

        counts, edges = np.histogram(x, bins="fd")
        with open_csv("hist.csv") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_left", "bin_right", "count"])
            for i, c in enumerate(counts):
                w.writerow([f"{edges[i]:.10g}", f"{edges[i + 1]:.10g}", int(c)])

        order = np.sort(x)
        theo = normal_ppf((np.arange(1, n + 1) - 0.5) / n)
        with open_csv("qq.csv") as fh:
            w = csv.writer(fh)
            w.writerow(["theoretical_quantile", "sample_quantile"])
            for tq, sq in zip(theo, order):
                w.writerow([f"{tq:.10g}", f"{sq:.10g}"])

        max_lag = min(int(np.floor(10.0 * np.log10(n))), n - 1)
        gamma = autocovariances(s, max_lag)
        acf = gamma[1:] / gamma[0]
        # partial autocorrelations are the Levinson reflection coefficients
        _, coeffs = _levinson(gamma, max_lag)
        pacf = [0.0 if c is None else c[-1] for c in coeffs[1:]]
        band = 1.96 / np.sqrt(n)
        with open_csv("acf.csv") as fh:
            w = csv.writer(fh)
            w.writerow(["lag", "acf", "pacf", "band"])
            for lag in range(1, max_lag + 1):
                w.writerow([lag, f"{acf[lag - 1]:.10g}", f"{pacf[lag - 1]:.10g}", f"{band:.10g}"])
    except OSError as exc:
        raise InvalidInputError(f"cannot write plot data under {out}: {exc}") from exc


def check(series, cfg: CheckConfig, data_name: str = "y") -> CheckReport:
    """Run the configured stationarity and normality tests on a residual
    series and, when requested, write the four plot-data CSV files."""
    s = as_series(series)
    stat_report = test_dispatch(cfg.unit_root, s, alpha=cfg.alpha, data_name=data_name)
    # adf's alternative is stationarity; kpss and lb have it as their null
    rejected = stat_report.p_value < cfg.alpha
    stat_ok = rejected == (METHODS[cfg.unit_root].alternative == "stationary")
    stat_conclusion = f"{data_name} is {'stationary' if stat_ok else 'non-stationary'}"

    norm_report = test_dispatch(
        cfg.normality,
        s,
        alpha=cfg.alpha,
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

    if cfg.emit_plot_data:
        _write_plot_data(s, cfg)

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
    payload = {
        "stationarity": _report_to_dict(report.stationarity),
        "stationarity_conclusion": report.stationarity_conclusion,
        "normality": _report_to_dict(report.normality),
        "normality_conclusion": report.normality_conclusion,
        "verdict": report.verdict,
    }
    return json.dumps(payload, indent=2)


def check_report_from_json(text: str) -> CheckReport:
    payload = json.loads(text)
    return CheckReport(
        stationarity=_report_from_dict(payload["stationarity"]),
        stationarity_conclusion=payload["stationarity_conclusion"],
        normality=_report_from_dict(payload["normality"]),
        normality_conclusion=payload["normality_conclusion"],
        verdict=payload["verdict"],
    )
