import csv

import pytest

from norts import (
    InnovationLaw,
    InvalidInputError,
    NumericDegeneracyError,
    RngStream,
    ScenarioSpec,
    reproduce_tables,
    run_scenario,
)
from norts import harness
from norts.cli import main


class TestRunScenario:
    def test_rate_is_exact_fraction(self):
        spec = ScenarioSpec(phi=0.25, law=InnovationLaw.normal(), n=100, method="lobato", trials=50)
        r = run_scenario(spec, RngStream(2100))
        assert r.rate == r.rejections / r.trials_used
        assert r.trials_used == 50
        assert r.failures == ()
        assert r.seconds_per_trial > 0

    def test_identical_across_worker_counts(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.student_t(3), n=120, method="epps", trials=48
        )
        serial = run_scenario(spec, RngStream(2101), workers=1)
        parallel = run_scenario(spec, RngStream(2101), workers=3)
        assert serial.rate == parallel.rate
        assert serial.rejections == parallel.rejections

    def test_epps_size_at_n100(self):
        spec = ScenarioSpec(phi=0.0, law=InnovationLaw.normal(), n=100, method="epps", trials=500)
        r = run_scenario(spec, RngStream(2102))
        assert abs(r.rate - 0.084) <= 0.035

    def test_lobato_lognormal_power_any_phi(self):
        spec = ScenarioSpec(
            phi=0.25, law=InnovationLaw.lognormal(), n=100, method="lobato", trials=200
        )
        r = run_scenario(spec, RngStream(2103))
        assert r.rate >= 0.99

    def test_vavra_chisq_power(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.chi_squared(10), n=500, method="vavra",
            method_options={"replications": 300}, trials=200,
        )
        r = run_scenario(spec, RngStream(2104), workers=4)
        assert r.rate >= 0.9

    def test_failing_trials_abort_with_index(self):
        # projections from a spread-out stick law cannot fit a 12-point series
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.normal(), n=12, method="rp",
            method_options={"k": 4}, trials=5,
        )
        with pytest.raises(InvalidInputError, match="trial 0"):
            run_scenario(spec, RngStream(2105))

    def test_failure_keeps_its_error_class(self, monkeypatch, tmp_path, capsys):
        def degenerate(spec, arma, stream):
            raise NumericDegeneracyError("forced breakdown")

        monkeypatch.setattr(harness, "_trial_pvalue", degenerate)
        spec = ScenarioSpec(phi=0.0, law=InnovationLaw.normal(), n=100, method="lobato", trials=3)
        with pytest.raises(NumericDegeneracyError, match="trial 0: forced breakdown"):
            run_scenario(spec, RngStream(2106))
        with pytest.raises(NumericDegeneracyError, match="all trials.*trial 0: forced breakdown"):
            run_scenario(spec, RngStream(2106), skip_failures=True)
        argv = [
            "simulate", "--methods", "lobato", "--n", "100", "--m", "3", "--phis", "0",
            "--laws", "normal", "--seed", "1", "--workers", "1", "--quiet",
            "--out", str(tmp_path / "x.csv"),
        ]
        for extra in ([], ["--skip-failures"]):
            assert main(argv + extra) == 4
            assert "numeric degeneracy" in capsys.readouterr().err

    def test_skip_failures_requires_survivors(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.normal(), n=12, method="rp",
            method_options={"k": 4}, trials=5,
        )
        with pytest.raises(InvalidInputError, match="all trials"):
            run_scenario(spec, RngStream(2105), skip_failures=True)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(phi=1.0, law=InnovationLaw.normal(), n=100, method="lobato")
        with pytest.raises(InvalidInputError):
            ScenarioSpec(phi=0.0, law=InnovationLaw.normal(), n=100, method="shapiro")
        with pytest.raises(InvalidInputError):
            ScenarioSpec(phi=0.0, law=InnovationLaw.normal(), n=100, method="lobato", alpha=1.5)


class TestReproduceTables:
    def test_smoke_full_grid_single_trial(self, tmp_path):
        out = tmp_path / "table.csv"
        table_rows = reproduce_tables(
            methods=("lobato", "epps", "rp", "vavra"),
            ns=(100,),
            m=1,
            out=out,
            seed=2200,
            method_options={"rp": {"k": 10}, "vavra": {"replications": 150}},
        )
        assert len(table_rows) == 4 * 5 * 5  # methods x laws x phis
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "law", "phi", "n", "rate", "trials"]
        assert len(rows) == 1 + len(table_rows)
        rates = {row.rate for row in table_rows}
        assert rates <= {0.0, 1.0}  # single-trial rates are 0 or 1

    def test_lookup_and_timing_column(self, tmp_path):
        out = tmp_path / "timed.csv"
        table_rows = reproduce_tables(
            methods=("lobato",),
            ns=(100, 250),
            m=20,
            out=out,
            seed=2201,
            phis=(0.0,),
            laws=(InnovationLaw.normal(),),
            timing=True,
        )
        rows = {(row.method, row.law, row.phi, row.n): row for row in table_rows}
        assert rows["lobato", "normal", 0.0, 250].trials == 20
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[-1] == "seconds_per_trial"

    def test_subset_scenarios_reuse_stream_identity(self, tmp_path):
        # the same cell must produce the same rate whether or not other
        # cells run alongside it
        kwargs = dict(m=30, seed=2202, phis=(0.0, 0.25), laws=(InnovationLaw.normal(),))
        full = reproduce_tables(("lobato", "epps"), (100,), out=tmp_path / "a.csv", **kwargs)
        only = reproduce_tables(("epps",), (100,), out=tmp_path / "b.csv", **kwargs)

        def rates(table_rows):
            return {(row.method, row.law, row.phi, row.n): row.rate for row in table_rows}

        assert rates(full)["epps", "normal", 0.25, 100] == rates(only)["epps", "normal", 0.25, 100]

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            reproduce_tables(("anderson",), (100,), 5, tmp_path / "x.csv")


def test_power_monotone_plausible_in_n():
    # growing samples should not lose power (up to Monte-Carlo noise) for
    # any non-normal law; checked on the two fast marginal tests
    laws = (
        InnovationLaw.lognormal(),
        InnovationLaw.student_t(3),
        InnovationLaw.chi_squared(10),
        InnovationLaw.beta(7, 1),
    )
    master = RngStream(2300)
    for li, law in enumerate(laws):
        for mi, method in enumerate(("lobato", "epps")):
            rates = {}
            for n in (100, 1000):
                spec = ScenarioSpec(phi=0.0, law=law, n=n, method=method, trials=150)
                rates[n] = run_scenario(spec, master.substream(li).substream(mi).substream(n)).rate
            assert rates[1000] >= rates[100] - 0.05, (law.label, method, rates)
