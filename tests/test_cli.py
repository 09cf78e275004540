import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import norts
from norts import ArmaSpec, RngStream, read_series_csv, simulate_arma
from norts import test_dispatch as dispatch  # alias keeps pytest collection away
from norts.cli import build_parser, main
from norts.harness import TABLE_LAWS

# periodic, so the Dickey-Fuller design is collinear; five levels give
# epps a moment covariance of full rank
PERIOD_5 = np.tile([0.0, 1.0, 2.0, 3.0, 4.0], 40)


@pytest.fixture
def gaussian_csv(tmp_path):
    s = simulate_arma(ArmaSpec(), 400, 0, RngStream(6000))
    p = tmp_path / "resid.csv"
    p.write_text("value\n" + "\n".join(f"{v:.12g}" for v in s.values) + "\n")
    return p


class TestTestCommand:
    def test_lobato_text_output(self, gaussian_csv, capsys):
        assert main(["test", "--method", "lobato", str(gaussian_csv)]) == 0
        out = capsys.readouterr().out
        assert "Lobato and Velasco's test" in out
        assert "data:  resid" in out
        assert "p-value" in out

    def test_json_output_parses_back(self, gaussian_csv, capsys):
        assert main(["test", "--method", "epps", "--format", "json", str(gaussian_csv)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["method"] == "Epps test"
        assert rep["df"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            *(["test", "--method", m] for m in ("lobato", "epps", "adf", "kpss", "lb")),
            ["test", "--method", "rp", "--k", "8"],
            ["test", "--method", "vavra", "--reps", "200"],
            ["test", "--method", "rp", "--k", "2"],
            ["check", "--k", "8"],
            ["check", "--k", "2"],
        ],
    )
    def test_json_output_is_strict(self, argv, gaussian_csv, capsys):
        # NaN and Infinity are not JSON; a strict parser rejects them
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert main([*argv, "--seed", "3", "--format", "json", str(gaussian_csv)]) == 0
        rep = json.loads(capsys.readouterr().out, parse_constant=reject)
        if argv[-1] == "2":
            stats = rep["statistics"] if argv[0] == "test" else rep["normality"]["statistics"]
            assert list(stats) == ["k", "lobato"]

    def test_rp_with_seed_is_reproducible(self, gaussian_csv, capsys):
        args = ["test", "--method", "rp", "--k", "8", "--seed", "41", str(gaussian_csv)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_rp_without_seed_echoes_seed(self, gaussian_csv, capsys):
        assert main(["test", "--method", "rp", "--k", "4", str(gaussian_csv)]) == 0
        assert "seed: " in capsys.readouterr().out

    def test_custom_lambda_grid(self, gaussian_csv, capsys):
        assert main(["test", "--method", "epps", "--lambda", "0.5,1.5,2.5", str(gaussian_csv)]) == 0
        rep_out = capsys.readouterr().out
        assert "df = 4" in rep_out  # 2N - 2 with N = 3

    def test_vavra_options(self, gaussian_csv, capsys):
        assert main([
            "test", "--method", "vavra", "--reps", "150", "--seed", "3", str(gaussian_csv),
        ]) == 0
        assert "Psaradakis-Vavra test" in capsys.readouterr().out

    def test_rp_beta_parameters(self, gaussian_csv, capsys):
        args = ["--k", "4", "--pars1", "2,5", "--pars2", "30,1", "--seed", "8"]
        assert main(["test", "--method", "rp", *args, "--format", "json", str(gaussian_csv)]) == 0
        rep = json.loads(capsys.readouterr().out)
        expected = dispatch("rp", read_series_csv(gaussian_csv), rng=RngStream(8), k=4,
                            pars1=(2.0, 5.0), pars2=(30.0, 1.0))
        assert rep["p_value"] == expected.p_value
        assert rep["statistics"] == expected.statistics

    def test_byte_order_mark_reads_every_value(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        text = "\n".join(f"{v:.12g}" for v in PERIOD_5 + np.arange(200) % 7) + "\n"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        outputs = []
        for path in (plain, bom):
            assert main(["test", "--method", "lobato", "--format", "json", str(path)]) == 0
            outputs.append(json.loads(capsys.readouterr().out)["p_value"])
        assert outputs[0] == outputs[1]

    def test_unit_root_methods(self, gaussian_csv, capsys):
        for method in ("adf", "kpss", "lb"):
            assert main(["test", "--method", method, str(gaussian_csv)]) == 0
        assert "Ljung-Box" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_is_2(self, gaussian_csv):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--method", "shapiro", str(gaussian_csv)])
        assert exc.value.code == 2

    def test_invalid_data_is_3(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\nnot-a-number\n")
        assert main(["test", "--method", "lobato", str(p)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_unparsed_first_value_is_3_at_line_1(self, tmp_path, capsys):
        # a first line that does not parse is a header only before a number
        p = tmp_path / "repr.csv"
        p.write_text("".join(f"np.float64({float(i)})\n" for i in range(50)))
        assert main(["test", "--method", "lobato", str(p)]) == 3
        assert f"invalid input: {p}: line 1: non-numeric value 'np.float64(0.0)'" in capsys.readouterr().err

    def test_undecodable_file_is_3(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"valu\xe9\n" + "\n".join(str(float(i % 7)) for i in range(50)).encode())
        assert main(["test", "--method", "lobato", str(p)]) == 3
        assert f"invalid input: cannot read {p}: 'utf-8' codec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["test", "--method", "lobato", "--k", "64"], "method 'lobato' takes no option 'k'"),
            (["test", "--method", "epps", "--lags", "4", "--reps", "5"],
             "method 'epps' takes no option 'lags'"),
            (["test", "--method", "adf", "--bootstrap", "normal"], "method 'adf' takes no option 'bootstrap'"),
            (["check", "--normality", "rp", "--reps", "100"],
             "method 'rp' takes no option 'replications'; its options are ('k', 'pars1', 'pars2')"),
            (["check", "--normality", "lobato", "--k", "8"], "method 'lobato' takes no option 'k'"),
        ],
    )
    def test_flag_the_method_does_not_take_is_3(self, argv, message, gaussian_csv, capsys):
        assert main([*argv, str(gaussian_csv)]) == 3
        captured = capsys.readouterr()
        assert f"norts: invalid input: {message}" in captured.err
        assert captured.out == ""

    def test_simulate_has_no_format_flag(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--m", "3", "--seed", "1", "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not out.exists()

    def test_precondition_violation_is_3(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("\n".join(str(float(i)) for i in range(20)) + "\n")
        assert main(["test", "--method", "adf", str(p)]) == 3
        assert "at least 30" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["lobato", "adf"])
    @pytest.mark.parametrize("alpha", ["-1", "nan"])
    def test_alpha_outside_unit_interval_is_3(self, method, alpha, gaussian_csv, capsys):
        assert main(["test", "--method", method, f"--alpha={alpha}", str(gaussian_csv)]) == 3
        captured = capsys.readouterr()
        assert "alpha must lie in (0, 1)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_3(self, workers, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main([
            "simulate", "--methods", "lobato", "--n", "100", "--m", "5", "--phis", "0",
            "--laws", "normal", "--seed", "1", f"--workers={workers}", "--quiet",
            "--out", str(out),
        ]) == 3
        assert "workers must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_degeneracy_is_4(self, tmp_path, capsys):
        # a period-2 series: F3 is zero in exact arithmetic and -3.5e-18 here
        p = tmp_path / "flip.csv"
        p.write_text("\n".join(repr(v) for v in np.tile([0.0, 1.0], 10).tolist()) + "\n")
        assert main(["test", "--method", "lobato", str(p)]) == 4
        assert "numeric degeneracy: non-positive studentization sum" in capsys.readouterr().err

    def test_nearly_collinear_adf_design_is_4(self, tmp_path, capsys):
        # period 2 plus 1e-9 noise: the Dickey-Fuller design is nearly
        # collinear; lobato runs and notes that its pre-check failed
        x = np.tile([0.0, 1.0], 125) + 1e-9 * np.random.default_rng(1).standard_normal(250)
        p = tmp_path / "flip.csv"
        p.write_text("\n".join(repr(v) for v in x.tolist()) + "\n")
        degenerate = "norts: numeric degeneracy: Dickey-Fuller regression design is nearly collinear\n"
        for argv in (["test", "--method", "adf"], ["check", "--seed", "1"]):
            assert main([*argv, str(p)]) == 4
            assert capsys.readouterr().err == degenerate
        assert main(["test", "--method", "lobato", str(p)]) == 0
        assert ("note: warning: augmented Dickey-Fuller pre-check failed: Dickey-Fuller "
                "regression design is nearly collinear") in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["lobato", "rp"])
    def test_extreme_scale_exits_0(self, method, tmp_path, capsys):
        # moments of these series lie outside double range; the tests run on
        # the series scaled to unit spread, so they give the unit-scale result
        z = RngStream(7)._generator().standard_normal(200)
        outputs = []
        for scale in (1e150, 1e300, 1e-150, 1e-300, 1.0):
            p = tmp_path / "x.csv"
            p.write_text("\n".join(repr(float(v)) for v in scale * z) + "\n")
            assert main(["test", "--method", method, "--seed", "5", str(p)]) == 0
            outputs.append(capsys.readouterr().out)
        assert "p-value = " in outputs[-1] and "nan" not in outputs[-1]
        assert outputs == outputs[-1:] * 5

    @pytest.mark.parametrize(
        "values, method, extra",
        [
            (np.tile([0.0, 1.0], 100), "vavra", ["--reps", "200", "--seed", "4"]),
            (PERIOD_5, "epps", []),
            (PERIOD_5, "vavra", ["--reps", "200", "--seed", "4"]),
        ],
    )
    def test_failed_stationarity_precheck_is_a_note(self, values, method, extra, tmp_path, capsys):
        # the advisory ADF check cannot run on these series; the test itself can
        p = tmp_path / "x.csv"
        p.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        assert main(["test", "--method", method, *extra, str(p)]) == 0
        assert (
            "note: warning: augmented Dickey-Fuller pre-check failed: "
            "Dickey-Fuller regression design is nearly collinear\n"
        ) in capsys.readouterr().out

    def test_verdict_does_not_change_exit_code(self, tmp_path, capsys):
        # clearly non-normal data still exits 0: the test ran
        x = np.exp(np.asarray(simulate_arma(ArmaSpec(), 300, 0, RngStream(6001)).values))
        p = tmp_path / "logn.csv"
        p.write_text("\n".join(f"{v:.12g}" for v in x) + "\n")
        assert main(["test", "--method", "lobato", str(p)]) == 0
        assert "p-value" in capsys.readouterr().out


class TestCheckCommand:
    def test_text_report_and_conclusions(self, gaussian_csv, capsys):
        assert main([
            "check", "--normality", "lobato", "--seed", "5", str(gaussian_csv),
        ]) == 0
        out = capsys.readouterr().out
        assert "Unit root test for stationarity" in out
        assert "Goodness of fit test for Gaussian Distribution" in out
        assert "Conclusion: resid is stationary" in out
        assert "Conclusion: resid follows a Gaussian Process" in out

    def test_byte_stable_for_fixed_seed(self, gaussian_csv, capsys):
        args = ["check", "--normality", "rp", "--k", "6", "--seed", "12", str(gaussian_csv)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_plot_data_files(self, gaussian_csv, tmp_path, capsys):
        out_dir = tmp_path / "plots"
        out_dir.mkdir()
        assert main([
            "check", "--normality", "lobato", "--seed", "5", "--plot-data",
            "--out", str(out_dir), str(gaussian_csv),
        ]) == 0
        for name in ("residuals.csv", "hist.csv", "qq.csv", "acf.csv"):
            assert (out_dir / name).exists()

    def test_out_without_plot_data_is_3(self, gaussian_csv, tmp_path, capsys, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["check", "--normality", "lobato", "--out", ".", str(gaussian_csv)]) == 3
        captured = capsys.readouterr()
        assert "norts: invalid input: --out needs --plot-data" in captured.err
        assert captured.out == ""
        assert list(cwd.iterdir()) == []
        # --plot-data alone writes to the working directory
        assert main(["check", "--normality", "lobato", "--seed", "5", "--plot-data", str(gaussian_csv)]) == 0
        assert sorted(p.name for p in cwd.iterdir()) == ["acf.csv", "hist.csv", "qq.csv", "residuals.csv"]


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports this norts."""
    path = [str(Path(norts.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    r = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_epps_grid_overflowing_with_the_data_is_3(tmp_path):
    # the grid fits the data's scale, but its products with 1e6 + N(0, 1)
    # overflow: exit 3 with one line, no traceback and no RuntimeWarning
    p = tmp_path / "offset.csv"
    x = 1e6 + simulate_arma(ArmaSpec(), 200, 0, RngStream(6001)).values
    p.write_text("\n".join(map(repr, x.tolist())) + "\n")
    path = [str(Path(norts.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = ["-m", "norts", "test", "--method", "epps", "--lambda", "1e303,1e305", str(p)]
    r = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == ("norts: invalid input: frequency grid (1e+303, 1e+305) times the data's "
                        "largest magnitude leaves the double range\n")


def test_check_does_not_load_scipy_signal(gaussian_csv):
    # scipy.signal pulls in most of scipy, and norts needs none of it
    run_fresh(
        "import sys, norts\n"
        "assert 'scipy.signal' not in sys.modules, 'import norts'\n"
        "from norts.cli import main\n"
        "argv = ['check', '--unit-root', 'adf', '--normality', 'rp', '--k', '4', '--seed', '1', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "assert 'scipy.signal' not in sys.modules, 'norts check'\n",
        gaussian_csv,
    )


def test_filters_do_not_load_scipy_signal(tmp_path):
    # every ARMA filter runs in numpy: the simulate grid, vavra's sieve
    # bootstrap and simulate_arma with MA terms
    ar_csv = tmp_path / "ar.csv"
    ar_csv.write_text("\n".join(map(str, simulate_arma(ArmaSpec(ar=(0.6,)), 300, 100, RngStream(9)).values)))
    run_fresh(
        "import sys\n"
        "from norts import ArmaSpec, RngStream, simulate_arma\n"
        "from norts.cli import main\n"
        "argv = ['simulate', '--n', '50', '--m', '4', '--phis', '0.4', '--laws', 'normal',\n"
        "        '--seed', '1', '--quiet', '--out', sys.argv[2]]\n"
        "assert main(argv) == 0\n"
        "assert 'scipy.signal' not in sys.modules, 'norts simulate'\n"
        "assert main(['test', '--method', 'vavra', '--reps', '20', '--seed', '1', sys.argv[1]]) == 0\n"
        "assert 'scipy.signal' not in sys.modules, 'norts test --method vavra'\n"
        "simulate_arma(ArmaSpec(ar=(0.5,), ma=(0.3,)), 100, 20, RngStream(1))\n"
        "assert 'scipy.signal' not in sys.modules, 'simulate_arma'\n",
        ar_csv,
        tmp_path / "grid.csv",
    )


class TestSimulateCommand:
    def test_csv_written_and_deterministic_across_workers(self, tmp_path, capsys):
        outs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}.csv"
            assert main([
                "simulate", "--methods", "lobato", "--n", "100", "--m", "30",
                "--phis", "0,0.25", "--laws", "normal,t3",
                "--seed", "77", "--workers", str(workers), "--quiet", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        header = outs[0].decode().splitlines()[0]
        assert header == "method,law,phi,n,rate,trials"

    def test_parenthesized_law_and_negative_phi(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main([
            "simulate", "--methods", "lobato", "--n", "100", "--m", "5",
            "--phis=-0.4,0", "--laws", "normal,beta(7,1)",
            "--seed", "2", "--quiet", "--out", str(out),
        ]) == 0
        body = out.read_text()
        assert "beta(7,1)" in body
        assert ",-0.4," in body

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "--methods", "lobato", "--n", "100", "--m", "10",
            "--phis", "0", "--laws", "normal", "--seed", "1", "--out", str(out),
        ]) == 0
        err = capsys.readouterr().err
        assert "lobato normal phi=0 n=100" in err

    def test_default_laws_and_echoed_seed(self, tmp_path, capsys):
        out, replay = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["simulate", "--methods", "lobato", "--n", "20", "--m", "4", "--phis", "0", "--quiet"]
        assert main([*grid, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("seed: ") and err.count("\n") == 1
        with open(out, newline="") as fh:
            laws = [row[1] for row in list(csv.reader(fh))[1:]]
        assert laws == [law.label for law in TABLE_LAWS]
        assert main([*grid, "--seed", err.split()[1], "--out", str(replay)]) == 0
        assert replay.read_bytes() == out.read_bytes()


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes were read."""

    def __getattribute__(self, name):
        object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--method", "lobato", "{csv}"],
        ["check", "--normality", "lobato", "--plot-data", "--out", "{dir}", "{csv}"],
        ["simulate", "--methods", "lobato", "--n", "12", "--m", "2", "--phis", "0", "--laws", "normal",
         "--seed", "1", "--quiet", "--out", "{dir}/t.csv"],
    ],
)
def test_every_flag_is_read(argv, tmp_path, capsys):
    # a flag that is parsed but never read does nothing
    p = tmp_path / "x.csv"
    p.write_text("\n".join(repr(v) for v in (PERIOD_5[:40] + np.arange(40) % 3).tolist()) + "\n")
    argv = [a.format(csv=p, dir=tmp_path) for a in argv]
    args = build_parser().parse_args(argv, namespace=_ReadRecorder())
    dests = set(vars(args)) - {"_reads", "command", "func"}
    vars(args)["_reads"] = set()
    assert args.func(args) == 0
    assert dests - vars(args)["_reads"] == set()
