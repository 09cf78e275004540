"""Golden CLI outputs for fixed seeds: ``norts test`` for all seven methods,
``norts check`` with each seeded normality method, and a ``norts simulate``
grid over all four normality methods at one and two workers.

A change to any of these bytes is a contract change and must be stated.
"""

import pytest

from norts import ArmaSpec, InnovationLaw, RngStream, simulate_arma
from norts.cli import main

ALT = "alternative hypothesis: golden does not follow a Gaussian Process\n"
ADF_BLOCK = (
    "\n\tAugmented Dickey-Fuller Test\n\ndata:  golden\n"
    "Dickey-Fuller = -5.1848, Lag order = 6, p-value = 0.01\n"
    "alternative hypothesis: stationary\n"
    "note: p-value interpolated at a critical-value table edge\n"
)

TEST_GOLDEN = {
    "lobato": (
        [],
        "\n\tLobato and Velasco's test\n\ndata:  golden\n"
        "lobato = 88.85, df = 2, p-value = 5.087e-20\n" + ALT,
    ),
    "epps": (
        ["--lambda", "0.5,1,1.5"],
        "\n\tEpps test\n\ndata:  golden\nepps = 8.5478, df = 4, p-value = 0.07345\n" + ALT,
    ),
    "rp": (
        ["--k", "8", "--seed", "11"],
        "\n\tk random projections test\n\ndata:  golden\n"
        "k = 8, lobato = 34.562, epps = 5.6266, p-value = 6.301e-16\n" + ALT,
    ),
    "vavra": (
        ["--reps", "200", "--seed", "12"],
        "\n\tPsaradakis-Vavra test\n\ndata:  golden\n"
        "A = 1.1987, bootstrap mean = 0.3987, p-value = 0.00995\n" + ALT,
    ),
    "adf": ([], ADF_BLOCK),
    "kpss": (
        [],
        "\n\tKPSS Test for Level Stationarity\n\ndata:  golden\n"
        "KPSS Level = 0.19508, Truncation lag = 4, p-value = 0.1\n"
        "alternative hypothesis: non-stationary\n"
        "note: p-value interpolated at a critical-value table edge\n",
    ),
    "lb": (
        ["--lags", "6"],
        "\n\tLjung-Box\n\ndata:  golden\nX-squared = 26.484, df = 6, p-value = 0.0001808\n"
        "alternative hypothesis: serial correlation present\n",
    ),
}

BANNER = " *************************************************** \n"


def _check_golden(normality_block: str) -> str:
    return (
        BANNER + "\n Unit root test for stationarity: \n" + ADF_BLOCK
        + "\n\n Conclusion: golden is stationary\n\n" + BANNER
        + "\n Goodness of fit test for Gaussian Distribution: \n" + normality_block
        + "\n\n Conclusion: golden does not follow a Gaussian Process\n\n" + BANNER
    )


CHECK_GOLDEN = {
    "rp": (
        ["--k", "8"],
        _check_golden(
            "\n\tk random projections test\n\ndata:  golden\n"
            "k = 8, lobato = 27.888, epps = 4.882, p-value = 1.607e-11\n" + ALT
        ),
    ),
    "vavra": (
        ["--reps", "150"],
        _check_golden(
            "\n\tPsaradakis-Vavra test\n\ndata:  golden\n"
            "A = 1.1987, bootstrap mean = 0.38521, p-value = 0.006623\n" + ALT
        ),
    ),
}

SIMULATE_GOLDEN = (
    b"method,law,phi,n,rate,trials\r\n"
    b"lobato,normal,0,100,0.000000,12\r\n"
    b"lobato,normal,0.4,100,0.083333,12\r\n"
    b"lobato,t(3),0,100,0.833333,12\r\n"
    b"lobato,t(3),0.4,100,0.916667,12\r\n"
    b"epps,normal,0,100,0.083333,12\r\n"
    b"epps,normal,0.4,100,0.000000,12\r\n"
    b"epps,t(3),0,100,0.500000,12\r\n"
    b"epps,t(3),0.4,100,0.333333,12\r\n"
    b"rp,normal,0,100,0.250000,12\r\n"
    b"rp,normal,0.4,100,0.000000,12\r\n"
    b"rp,t(3),0,100,0.916667,12\r\n"
    b"rp,t(3),0.4,100,0.500000,12\r\n"
    b"vavra,normal,0,100,0.000000,12\r\n"
    b"vavra,normal,0.4,100,0.083333,12\r\n"
    b"vavra,t(3),0,100,0.750000,12\r\n"
    b"vavra,t(3),0.4,100,0.916667,12\r\n"
)


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    s = simulate_arma(
        ArmaSpec(ar=(0.3,), innovation=InnovationLaw.student_t(5)), 240, 100, RngStream(7100)
    )
    path = tmp_path_factory.mktemp("golden") / "golden.csv"
    path.write_text("value\n" + "\n".join(f"{v:.12g}" for v in s.values) + "\n")
    return path


@pytest.mark.parametrize("method", sorted(TEST_GOLDEN))
def test_test_command_text(method, golden_csv, capsys):
    extra, expected = TEST_GOLDEN[method]
    assert main(["test", "--method", method, *extra, str(golden_csv)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("normality", sorted(CHECK_GOLDEN))
def test_check_command_text(normality, golden_csv, capsys):
    extra, expected = CHECK_GOLDEN[normality]
    argv = ["check", "--normality", normality, *extra, "--seed", "13", str(golden_csv)]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_csv_bytes(workers, tmp_path):
    out = tmp_path / "grid.csv"
    assert main([
        "simulate", "--methods", "lobato,epps,rp,vavra", "--n", "100", "--m", "12",
        "--phis", "0,0.4", "--laws", "normal,t3", "--k", "4", "--reps", "100",
        "--seed", "7", "--workers", str(workers), "--quiet", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == SIMULATE_GOLDEN
