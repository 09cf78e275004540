import dataclasses

import numpy as np
import pytest

from norts import (
    ArmaSpec,
    CheckConfig,
    InvalidInputError,
    RngStream,
    Series,
    TestReport,
    check,
    render_check_json,
    render_check_text,
    render_json,
    render_text,
    report_from_json,
    simulate_arma,
)
from norts import test_dispatch as dispatch  # alias keeps pytest collection away
from norts import report
from norts.harness import TABLE_METHODS
from norts.report import check_report_from_json

LOBATO_GOLDEN = (
    "\n"
    "\tLobato and Velasco's test\n"
    "\n"
    "data:  x\n"
    "lobato = 0.88858, df = 2, p-value = 0.6413\n"
    "alternative hypothesis: x does not follow a Gaussian Process\n"
)


class TestRendering:
    def test_text_golden(self, s50):
        rep = dispatch("lobato", s50, warn_stationarity=False)
        assert render_text(rep) == LOBATO_GOLDEN

    def test_json_round_trip(self, s50):
        rep = dispatch("lobato", s50, warn_stationarity=False)
        assert report_from_json(render_json(rep)) == rep

    def test_json_round_trip_with_notes_and_no_df(self):
        rep = TestReport(
            method="k random projections test",
            statistics={"k": 10.0, "lobato": 1.25, "epps": 3.5},
            p_value=0.42,
            df=None,
            alternative="x does not follow a Gaussian Process",
            data_name="resid",
            notes=("seed: 99 (auto-generated; pass it back to reproduce)",),
        )
        assert report_from_json(render_json(rep)) == rep

    def test_integer_valued_statistics_render_clean(self):
        rep = TestReport(
            method="Augmented Dickey-Fuller Test",
            statistics={"Dickey-Fuller": -9.7249, "Lag order": 8.0},
            p_value=0.01,
            alternative="stationary",
            data_name="y",
        )
        text = render_text(rep)
        assert "Dickey-Fuller = -9.7249, Lag order = 8, p-value = 0.01" in text


class TestDispatch:
    def test_lobato_report_shape(self, s50):
        rep = dispatch("lobato", s50, warn_stationarity=False)
        assert rep.method == "Lobato and Velasco's test"
        assert set(rep.statistics) == {"lobato"}
        assert rep.df == 2
        assert rep.alternative == "x does not follow a Gaussian Process"

    def test_epps_report_shape(self, s50):
        rep = dispatch("epps", s50, warn_stationarity=False)
        assert rep.method == "Epps test"
        assert rep.df == 2

    def test_rp_auto_seed_echoed(self):
        s = simulate_arma(ArmaSpec(), 200, 0, RngStream(4300))
        rep = dispatch("rp", s, k=4, warn_stationarity=False)
        assert any(note.startswith("seed: ") for note in rep.notes)
        assert 0.0 <= rep.p_value <= 1.0

    def test_rp_explicit_seed_not_echoed(self):
        s = simulate_arma(ArmaSpec(), 200, 0, RngStream(4300))
        rep = dispatch("rp", s, rng=RngStream(5), k=4, warn_stationarity=False)
        assert not any(note.startswith("seed:") for note in rep.notes)

    def test_vavra_reports_both_statistics(self):
        s = simulate_arma(ArmaSpec(), 150, 0, RngStream(4301))
        rep = dispatch("vavra", s, rng=RngStream(6), replications=150, warn_stationarity=False)
        assert set(rep.statistics) == {"A", "bootstrap mean"}

    def test_adf_short_series_invalid(self, s20):
        with pytest.raises(InvalidInputError):
            dispatch("adf", s20)

    def test_unknown_method(self, s50):
        with pytest.raises(InvalidInputError, match="unknown method"):
            dispatch("shapiro", s50)

    def test_option_the_method_does_not_take(self, s50):
        with pytest.raises(InvalidInputError, match="takes no option 'k'"):
            dispatch("lobato", s50, k=4)

    def test_epps_unconverged_note(self, s50, monkeypatch):
        real = report.epps_test

        def unconverged(s, lam=None):
            return dataclasses.replace(real(s, lam), converged=False)

        monkeypatch.setattr(report, "epps_test", unconverged)
        rep = dispatch("epps", s50, warn_stationarity=False)
        assert rep.notes == ("optimizer stopped before its convergence test held",)

    def test_table_order_fixes_simulate_streams(self):
        # a method's index in TABLE_METHODS selects its simulate sub-stream
        assert report.NORMALITY_METHODS == TABLE_METHODS == ("lobato", "epps", "rp", "vavra")
        assert report.UNIT_ROOT_METHODS == ("adf", "kpss", "lb")

    def test_stationarity_warning_on_random_walk(self):
        w = Series(np.cumsum(np.asarray(simulate_arma(ArmaSpec(), 400, 0, RngStream(4302)).values)))
        rep = dispatch("lobato", w)
        assert any("may be non-stationary" in note for note in rep.notes)

    def test_no_warning_on_stationary_data(self):
        s = simulate_arma(ArmaSpec(), 400, 0, RngStream(4303))
        rep = dispatch("lobato", s)
        assert rep.notes == ()


class TestCheck:
    def test_gaussian_defaults_agree(self):
        # both null hypotheses hold: conclusions should land on
        # stationary + Gaussian for the vast majority of seeds
        master = RngStream(4400)
        agree = 0
        trials = 50
        for j in range(trials):
            s = simulate_arma(ArmaSpec(), 500, 0, master.substream(j).substream(0))
            cfg = CheckConfig(seed=master.substream(j).substream(1), normality_options={"k": 10})
            rep = check(s, cfg, data_name="y")
            agree += (
                rep.stationarity_conclusion == "y is stationary"
                and rep.normality_conclusion == "y follows a Gaussian Process"
            )
        assert agree / trials >= 0.90

    def test_full_default_projection_count(self):
        s = simulate_arma(ArmaSpec(), 500, 0, RngStream(4401))
        rep = check(s, CheckConfig(seed=RngStream(8)), data_name="y")
        assert rep.normality.statistics["k"] == 64.0
        assert rep.stationarity_conclusion == "y is stationary"
        assert rep.normality_conclusion == "y follows a Gaussian Process"
        assert rep.verdict == "y behaves like a stationary Gaussian process"

    def test_random_walk_flagged_non_stationary(self):
        w = Series(np.cumsum(np.asarray(simulate_arma(ArmaSpec(), 400, 0, RngStream(4410)).values)))
        cfg = CheckConfig(normality="lobato", seed=RngStream(9))
        rep = check(w, cfg, data_name="y")
        assert rep.stationarity_conclusion == "y is non-stationary"
        assert "non-stationary" in rep.verdict

    def test_check_json_round_trip(self):
        s = simulate_arma(ArmaSpec(), 400, 0, RngStream(4403))
        cfg = CheckConfig(normality="lobato", seed=RngStream(10))
        rep = check(s, cfg, data_name="y")
        assert check_report_from_json(render_check_json(rep)) == rep

    def test_text_byte_stable(self):
        s = simulate_arma(ArmaSpec(), 400, 0, RngStream(4404))
        cfg = CheckConfig(normality="rp", seed=RngStream(11), normality_options={"k": 4})
        a = render_check_text(check(s, cfg, data_name="y"))
        b = render_check_text(check(s, cfg, data_name="y"))
        assert a == b

    def test_plot_data_contracts(self, tmp_path):
        n = 500
        s = simulate_arma(ArmaSpec(), n, 0, RngStream(4406))
        cfg = CheckConfig(
            normality="lobato", seed=RngStream(13), emit_plot_data=True, out_dir=tmp_path
        )
        check(s, cfg, data_name="y")
        residuals = (tmp_path / "residuals.csv").read_text().strip().splitlines()
        assert residuals[0] == "t,value"
        assert len(residuals) == 1 + n
        acf = (tmp_path / "acf.csv").read_text().strip().splitlines()
        assert acf[0] == "lag,acf,pacf,band"
        assert len(acf) == 1 + int(np.floor(10 * np.log10(n)))
        qq = (tmp_path / "qq.csv").read_text().strip().splitlines()
        assert qq[0] == "theoretical_quantile,sample_quantile"
        assert len(qq) == 1 + n
        hist = (tmp_path / "hist.csv").read_text().strip().splitlines()
        assert hist[0] == "bin_left,bin_right,count"
        counts = [int(line.split(",")[2]) for line in hist[1:]]
        assert sum(counts) == n

    def test_plot_data_unwritable_dir_reports_path(self, tmp_path):
        target = tmp_path / "missing" / "deeper"
        s = simulate_arma(ArmaSpec(), 100, 0, RngStream(4407))
        cfg = CheckConfig(
            normality="lobato", seed=RngStream(14), emit_plot_data=True, out_dir=target
        )
        with pytest.raises(InvalidInputError, match="cannot write"):
            check(s, cfg)
