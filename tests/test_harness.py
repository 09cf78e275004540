import csv
import dataclasses

import numpy as np
import pytest

from norts import (
    ArmaSpec,
    InnovationLaw,
    InvalidInputError,
    NortsError,
    NumericDegeneracyError,
    RngStream,
    ScenarioSpec,
    reproduce_tables,
    run_scenario,
    simulate_arma,
)
import norts.rng as rng_module
from norts import harness, report, series
from norts.cli import main
from norts.dist import _quantile


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
        def degenerate(s, rng):
            raise NumericDegeneracyError("forced breakdown")

        # the rows kernel defers every trial of the chunk to the runner, which fails
        lobato = dataclasses.replace(
            report.METHODS["lobato"], run=degenerate, rows=lambda x: np.full(len(x), np.nan)
        )
        monkeypatch.setitem(report.METHODS, "lobato", lobato)
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

    def test_degenerate_rows_defer_to_lobato_test(self, monkeypatch):
        def filtered(eps, ar):
            x = series._arma_filter(eps, ar)
            x[1] = 1.0  # zero variance
            x[3, -100:] = np.tile([0.0, 1.0], 50)  # F3 = 0 exactly, -1.4e-17 here
            return x

        monkeypatch.setattr(harness, "_arma_filter", filtered)
        spec = ScenarioSpec(phi=0.25, law=InnovationLaw.normal(), n=100, method="lobato", trials=5)
        r = run_scenario(spec, RngStream(2107), skip_failures=True)
        assert r.failures == (
            "trial 1: series has zero variance",
            "trial 3: non-positive studentization sum (F3=-1.38778e-17, F4=0.390625)",
        )
        assert r.trials_used == 3
        with pytest.raises(InvalidInputError, match="scenario failed: trial 1: series has zero variance"):
            run_scenario(spec, RngStream(2107))

    def test_option_a_method_does_not_take_is_rejected(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.normal(), n=100, method="lobato",
            method_options={"k": 4}, trials=3,
        )
        with pytest.raises(InvalidInputError, match="trial 0: method 'lobato' takes no option 'k'"):
            run_scenario(spec, RngStream(2108))

    def test_skip_failures_requires_survivors(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.normal(), n=12, method="rp",
            method_options={"k": 4}, trials=5,
        )
        with pytest.raises(InvalidInputError, match="all trials"):
            run_scenario(spec, RngStream(2105), skip_failures=True)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        spec = ScenarioSpec(phi=0.0, law=InnovationLaw.normal(), n=100, method="lobato", trials=3)
        with pytest.raises(InvalidInputError, match="workers must be positive"):
            run_scenario(spec, RngStream(2109), workers=workers)

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

    def test_failing_first_cell_leaves_existing_file(self, tmp_path):
        # rp at n = 12 cannot draw a projection that leaves 10 points
        out = tmp_path / "keep.csv"
        out.write_text("method,law,phi,n,rate,trials\nlobato,normal,0,100,0.050000,200\n")
        before = out.read_bytes()
        grid = dict(phis=(0.0,), laws=(InnovationLaw.normal(),), method_options={"rp": {"k": 10}})
        with pytest.raises(InvalidInputError, match="projection 1: .* the 12 available"):
            reproduce_tables(("rp",), (12,), 2, out, seed=1, **grid)
        assert out.read_bytes() == before
        # an invalid later cell fails before the first one runs
        ran = []
        with pytest.raises(InvalidInputError, match="at least 10"):
            reproduce_tables(("rp",), (100, 5), 2, out, seed=1, progress=ran.append, **grid)
        assert ran == [] and out.read_bytes() == before
        # once a cell has run, rows stream: a later failure keeps them on disk
        with pytest.raises(InvalidInputError, match="the 12 available"):
            reproduce_tables(("rp",), (100, 12), 2, out, seed=1, progress=ran.append, **grid)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(ran) == 1
        assert rows == [list(harness._CSV_FIELDS), ["rp", "normal", "0", "100", f"{ran[0].rate:.6f}", "2"]]


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


@pytest.mark.parametrize(
    "phi, k",
    [(0.0, 0), (0.25, 27), (-0.25, 27), (0.4, 41), (-0.4, 41), (0.5, 53),
     (0.929, 499), (0.93, 500), (-0.93, 500), (0.99, 500)],
)
def test_burn_in_is_the_memory_above_half_an_ulp(phi, k):
    # 0.5**53 == 2**-53 exactly: the boundary counts as negligible
    assert harness._burn_in(phi) == k


@pytest.mark.parametrize("law", harness.TABLE_LAWS, ids=lambda law: law.label)
def test_short_burn_in_keeps_the_full_burn_in_path(law):
    # the same trailing innovations, filtered from k(phi) or BURN_IN steps back
    n, burn = 100, harness.BURN_IN
    eps = _quantile(law, RngStream(2402).uniform_rows(range(500), burn + n))
    for phi in harness.TABLE_PHIS + (-0.6, 0.6, 0.9, -0.93, 0.93, 0.99):
        ar = (phi,) if phi != 0.0 else ()
        full = series._arma_filter(eps, ar)[:, burn:]
        k = harness._burn_in(phi)
        short = series._arma_filter(eps[:, burn - k :], ar)[:, k:]
        if phi == 0.0 or abs(phi) >= 0.93:
            np.testing.assert_array_equal(short, full)
        else:
            gap = np.max(np.abs(short - full), axis=1)
            assert np.all(gap <= 1e-13 * full.std(axis=1)), (phi, np.max(gap / full.std(axis=1)))


def per_trial(spec, stream, j):
    """Trial j as one series, as the harness docstring defines it: the
    reference for the chunked path."""
    arma = ArmaSpec(ar=(spec.phi,) if spec.phi != 0.0 else (), innovation=spec.law)
    trial = stream.substream(j)
    s = trial.substream(0)
    k = harness._burn_in(spec.phi)
    s.uniform(harness.BURN_IN - k)
    x = simulate_arma(arma, spec.n, k, s)
    try:
        rep = report.test_dispatch(
            spec.method, x, rng=trial.substream(1), warn_stationarity=False, **spec.method_options
        )
    except NortsError as exc:
        return type(exc), str(exc)
    return rep.p_value


def chunked(spec, stream, chunk, block_rows, monkeypatch):
    """Every trial's p-value (or error) from chunks of ``chunk`` trials, each
    simulated in row blocks of ``block_rows``."""
    monkeypatch.setattr(rng_module, "_BLOCK_ELEMENTS", block_rows * (harness.BURN_IN + spec.n))
    indices = list(range(spec.trials))
    out = {}
    for i in range(0, spec.trials, chunk):
        for j, p, exc in harness._trial_batch((spec, stream, indices[i : i + chunk], True)):
            out[j] = p if exc is None else (type(exc), str(exc))
    return [out[j] for j in indices]


@pytest.mark.parametrize("law", harness.TABLE_LAWS, ids=lambda law: law.label)
def test_chunked_trials_equal_per_trial_series(law, monkeypatch):
    # chunk sizes of run_scenario at 1, 2 and 3 workers (trials // (4 workers))
    trials = 25
    for phi in (-0.4, 0.0, 0.4):
        for n in (10, 11, 64, 65, 100, 250):
            spec = ScenarioSpec(phi=phi, law=law, n=n, method="lobato", trials=trials)
            stream = RngStream(2400, stream_id=n).substream(int(10 * phi) + 4)
            expected = [per_trial(spec, stream, j) for j in range(trials)]
            with monkeypatch.context() as m:
                # the rows kernel scores every trial: none falls back to lobato_test
                m.setattr(report, "lobato_test", None)
                for chunk in (trials, trials // 8, trials // 12):
                    for block_rows in (trials, 3):
                        got = chunked(spec, stream, chunk, block_rows, m)
                        assert got == expected, (phi, n, chunk, block_rows)


@pytest.mark.parametrize(
    "method, options",
    [("epps", {}), ("rp", {"k": 4}), ("vavra", {"replications": 100})],
)
def test_chunked_trials_of_unbatched_methods_equal_per_trial_series(method, options, monkeypatch):
    spec = ScenarioSpec(
        phi=0.25, law=InnovationLaw.student_t(3), n=100, method=method,
        method_options=options, trials=6,
    )
    stream = RngStream(2401)
    expected = [per_trial(spec, stream, j) for j in range(spec.trials)]
    assert chunked(spec, stream, 4, 3, monkeypatch) == expected
    assert all(isinstance(p, float) for p in expected)
