import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norts import (
    ArmaSpec,
    GarchSpec,
    InnovationLaw,
    InvalidInputError,
    InvalidSpecError,
    RngStream,
    Series,
    autocovariances,
    read_series_csv,
    simulate_arma,
    simulate_garch,
)
from norts.series import _lag_sums

finite_values = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=40
)


class TestSeriesType:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            Series(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(InvalidInputError, match="non-finite"):
            Series(np.array([1.0, np.inf]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(InvalidInputError):
            Series(np.array([]))
        with pytest.raises(InvalidInputError):
            Series(np.ones((3, 2)))

    def test_values_are_immutable(self):
        s = Series(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestAutocov:
    def test_lag_zero_is_variance(self, s20):
        d = s20.values - np.mean(s20.values)
        assert autocovariances(s20, 0)[0] == pytest.approx(np.mean(d**2), abs=1e-15)

    def test_boundary_lag(self, s20):
        n = len(s20)
        mu = s20.values.mean()
        oracle = (s20.values[-1] - mu) * (s20.values[0] - mu) / n
        assert autocovariances(s20)[n - 1] == pytest.approx(oracle, abs=1e-15)

    def test_naive_loop_oracle(self, s20):
        n = len(s20)
        mu = sum(s20.values) / n
        oracle = sum((s20.values[i + 3] - mu) * (s20.values[i] - mu) for i in range(n - 3)) / n
        assert abs(autocovariances(s20, 3)[3] - oracle) < 1e-12

    def test_rejects_out_of_range_lag(self, s20):
        with pytest.raises(InvalidInputError):
            autocovariances(s20, len(s20))
        with pytest.raises(InvalidInputError):
            autocovariances(s20, -1)

    def test_few_lags_equal_full_correlation(self):
        # Few lags take one dot product each; they must equal the entries
        # of the full correlation bit for bit.
        gen = np.random.default_rng(46)
        for n in (10, 11, 64, 65, 250, 1000, 1537, 4000):
            for scale in (1e-5, 1.0, 1e5):
                x = gen.standard_t(3, size=n) * scale + gen.uniform(-100, 100)
                d = x - np.mean(x)
                full = np.correlate(d, d, mode="full")[n - 1 :] / n
                for max_lag in {0, 1, 2, 10, 40, 62, 63, 64, n - 2, n - 1}:
                    if 0 <= max_lag < n:
                        np.testing.assert_array_equal(
                            autocovariances(x, max_lag), full[: max_lag + 1]
                        )

    @pytest.mark.parametrize(
        "rows, n, max_lag",
        [(100, n, h) for n in (10, 12, 100, 250) for h in sorted({0, 1, 10, 63, 64, n - 2}) if h < n]
        + [(1, n, h) for n in (63, 64, 65) for h in (62, 63, 64) if h < n]
        + [(1, 1000, 30), (1, 1000, 999)],
    )
    def test_lag_sums_equal_per_row_correlate(self, rows, n, max_lag):
        gen = np.random.default_rng(n + max_lag)
        x = gen.standard_t(3, (rows, n)) * 10.0 ** gen.uniform(-5, 5, (rows, 1))
        d = x - x.mean(axis=1, keepdims=True)
        expected = np.array([np.correlate(row, row, mode="full")[n - 1 : n + max_lag] for row in d])
        np.testing.assert_array_equal(_lag_sums(d, max_lag), expected)

    def test_cauchy_schwarz_bound(self):
        master = RngStream(4500)
        for j in range(50):
            s = simulate_arma(ArmaSpec(ar=(0.8,)), 60, 30, master.substream(j))
            gamma = autocovariances(s, 10)
            assert np.all(np.abs(gamma) <= gamma[0] * (1 + 1e-12))


@given(values=finite_values, a=st.floats(0.2, 4.0), b=st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_affine_scaling_properties(values, a, b):
    x = np.array(values)
    if np.std(x) < 1e-6:
        return
    y = a * x + b
    for k in (2, 3, 4):
        left = np.mean((y - np.mean(y)) ** k)
        right = a**k * np.mean((x - np.mean(x)) ** k)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)
    assert autocovariances(y, 2) == pytest.approx(
        a**2 * autocovariances(x, 2), rel=1e-9, abs=1e-9
    )


@given(values=st.lists(st.floats(-20, 20, allow_nan=False), min_size=7, max_size=30))
@settings(max_examples=60, deadline=None)
def test_autocov_toeplitz_psd(values):
    x = np.array(values)
    gamma = autocovariances(x, 5)
    mat = np.array([[gamma[abs(i - j)] for j in range(6)] for i in range(6)])
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-10 * max(gamma[0], 1.0)


class TestSimulateArma:
    def test_white_noise_mean(self):
        n = 4000
        s = simulate_arma(ArmaSpec(), n, 0, RngStream(7))
        assert abs(np.mean(s.values)) < 4 / np.sqrt(n)

    def test_ar1_autocorrelation(self):
        n = 100_000
        s = simulate_arma(ArmaSpec(ar=(0.4,)), n, 500, RngStream(8))
        gamma = autocovariances(s, 1)
        rho1 = gamma[1] / gamma[0]
        assert abs(rho1 - 0.4) < 0.02

    def test_seed_replay_bit_identical(self):
        spec = ArmaSpec(ar=(0.3,), ma=(0.2,), innovation=InnovationLaw.student_t(3))
        a = simulate_arma(spec, 500, 100, RngStream(9, stream_id=2))
        b = simulate_arma(spec, 500, 100, RngStream(9, stream_id=2))
        np.testing.assert_array_equal(a.values, b.values)

    def test_burn_in_discards_prefix(self):
        spec = ArmaSpec(ar=(0.5,))
        long = simulate_arma(spec, 300, 0, RngStream(10))
        short = simulate_arma(spec, 200, 100, RngStream(10))
        np.testing.assert_array_equal(long.values[100:], short.values)

    def test_rejects_non_stationary(self):
        with pytest.raises(InvalidSpecError):
            ArmaSpec(ar=(1.0,))
        with pytest.raises(InvalidSpecError):
            ArmaSpec(ar=(0.7, 0.5))


class TestSimulateGarch:
    def test_degenerate_reduces_to_white_noise(self):
        spec = GarchSpec(alpha0=1.0, alpha=(0.0,), beta=(0.0,), mu=2.0)
        n = 50_000
        s = simulate_garch(spec, n, 100, RngStream(11))
        assert abs(np.mean(s.values) - 2.0) < 4 / np.sqrt(n)
        assert abs(np.var(s.values) - 1.0) < 0.05

    def test_unconditional_variance(self):
        spec = GarchSpec(alpha0=1.0, alpha=(0.2,), beta=(0.3,))
        s = simulate_garch(spec, 100_000, 500, RngStream(12))
        target = 1.0 / (1 - 0.5)
        assert abs(np.var(s.values) - target) / target < 0.05

    def test_seed_replay_bit_identical(self):
        spec = GarchSpec(alpha0=0.5, alpha=(0.1,), beta=(0.2,))
        a = simulate_garch(spec, 300, 50, RngStream(13))
        b = simulate_garch(spec, 300, 50, RngStream(13))
        np.testing.assert_array_equal(a.values, b.values)

    def test_alpha0_zero_substituted_with_warning(self):
        with pytest.warns(UserWarning, match="alpha0") as record:
            spec = GarchSpec(alpha0=0.0, alpha=(0.2,), beta=(0.3,))
        assert spec.alpha0 == 1e-6
        assert record[0].filename == __file__  # the line that built the spec

    def test_rejects_non_stationary(self):
        with pytest.raises(InvalidSpecError):
            GarchSpec(alpha0=1.0, alpha=(0.6,), beta=(0.4,))


class TestCsvReader:
    def test_reads_plain_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.5\n-2.25\n3.0\n")
        s = read_series_csv(p)
        np.testing.assert_array_equal(s.values, [1.5, -2.25, 3.0])

    def test_skips_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("value\n1.0\n2.0\n")
        np.testing.assert_array_equal(read_series_csv(p).values, [1.0, 2.0])

    def test_short_header_before_numbers(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("x\n1.0\n\n2.0\n")
        np.testing.assert_array_equal(read_series_csv(p).values, [1.0, 2.0])

    @pytest.mark.parametrize("text", ["np.float64(0.0)\nnp.float64(1.0)\n2.0\n", "np.float64(0.0)\n\n"])
    def test_first_line_without_a_number_after_it_is_an_error(self, tmp_path, text):
        p = tmp_path / "x.csv"
        p.write_text(text)
        with pytest.raises(InvalidInputError, match=r"line 1: non-numeric value 'np\.float64\(0\.0\)'$"):
            read_series_csv(p)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0\nbogus\n3.0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            read_series_csv(p)

    def test_multi_column_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n")
        with pytest.raises(InvalidInputError, match="line 1"):
            read_series_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="cannot read"):
            read_series_csv(tmp_path / "absent.csv")

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        np.testing.assert_array_equal(read_series_csv(p).values, [1.5, 2.5, 3.5])

    def test_undecodable_file_names_the_file(self, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"valu\xe9\n1.0\n2.0\n")
        with pytest.raises(InvalidInputError, match=r"cannot read .*latin\.csv: 'utf-8' codec"):
            read_series_csv(p)
