"""Goodness-of-fit tests for normality of stationary stochastic processes.

Four test families are provided: the characteristic-function test
(:func:`epps_test`), the long-run-corrected skewness-kurtosis test
(:func:`lobato_test`), the random-projection test of full Gaussianity
(:func:`rp_test`) and the sieve-bootstrap Anderson-Darling test
(:func:`vavra_test`); plus stationarity pre-tests, ARMA/GARCH simulators
and a Monte-Carlo rejection-rate harness.
"""

from .dist import InnovationLaw, chi2_sf, normal_ppf, sample
from .epps import (
    EppsResult,
    Lambda,
    ThetaParams,
    epps_test,
    g_hat,
    g_theta,
    g_vector,
    qn,
    spectral_zero,
)
from .errors import InvalidInputError, InvalidSpecError, NortsError, NumericDegeneracyError
from .harness import ScenarioResult, ScenarioSpec, reproduce_tables, run_scenario
from .lobato import LobatoResult, fk_hat, lobato_test
from .report import (
    CheckConfig,
    CheckReport,
    TestReport,
    check,
    render_check_json,
    render_check_text,
    render_json,
    render_text,
    test_dispatch,
)
from .rng import RngStream
from .rp import (
    ProjectionConfig,
    ProjectionVector,
    RpResult,
    fdr_combine,
    project_series,
    rp_test,
    stick_breaking_h,
)
from .series import (
    ArmaSpec,
    GarchSpec,
    Series,
    as_series,
    autocovariances,
    read_series_csv,
    simulate_arma,
    simulate_garch,
)
from .stationarity import UnitRootReport, adf_test, kpss_test, ljung_box
from .vavra import SieveConfig, VavraResult, anderson_darling, fit_ar_sieve, vavra_test

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NortsError",
    "InvalidInputError",
    "InvalidSpecError",
    "NumericDegeneracyError",
    # rng / distributions
    "RngStream",
    "InnovationLaw",
    "sample",
    "normal_ppf",
    "chi2_sf",
    # series
    "Series",
    "as_series",
    "read_series_csv",
    "autocovariances",
    "ArmaSpec",
    "GarchSpec",
    "simulate_arma",
    "simulate_garch",
    # epps
    "Lambda",
    "ThetaParams",
    "EppsResult",
    "g_vector",
    "g_theta",
    "g_hat",
    "spectral_zero",
    "qn",
    "epps_test",
    # lobato
    "LobatoResult",
    "fk_hat",
    "lobato_test",
    # rp
    "ProjectionConfig",
    "ProjectionVector",
    "RpResult",
    "stick_breaking_h",
    "project_series",
    "fdr_combine",
    "rp_test",
    # vavra
    "SieveConfig",
    "VavraResult",
    "anderson_darling",
    "fit_ar_sieve",
    "vavra_test",
    # stationarity
    "UnitRootReport",
    "ljung_box",
    "adf_test",
    "kpss_test",
    # harness
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
    "reproduce_tables",
    # reports
    "TestReport",
    "CheckConfig",
    "CheckReport",
    "test_dispatch",
    "check",
    "render_text",
    "render_json",
    "render_check_text",
    "render_check_json",
]
