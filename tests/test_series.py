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
    sample_central_moment,
    simulate_arma,
    simulate_garch,
)

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


class TestCentralMoment:
    def test_pm_one_variance(self):
        assert sample_central_moment([-1.0, 1.0], 2) == 1.0

    def test_odd_moment_antisymmetry(self, s20):
        flipped = Series(-s20.values)
        assert sample_central_moment(flipped, 3) == pytest.approx(
            -sample_central_moment(s20, 3), abs=1e-12
        )

    def test_naive_loop_oracle(self, s20):
        mu = sum(s20.values) / len(s20)
        for k in (2, 3, 4, 5):
            oracle = sum((v - mu) ** k for v in s20.values) / len(s20)
            assert abs(sample_central_moment(s20, k) - oracle) < 1e-12

    def test_rejects_low_order(self, s20):
        with pytest.raises(InvalidInputError):
            sample_central_moment(s20, 1)


class TestAutocov:
    def test_lag_zero_is_variance(self, s20):
        assert autocovariances(s20, 0)[0] == pytest.approx(
            sample_central_moment(s20, 2), abs=1e-15
        )

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
        left = sample_central_moment(y, k)
        right = a**k * sample_central_moment(x, k)
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
        d = s.values - np.mean(s.values)
        rho1 = (d[1:] @ d[:-1]) / (d @ d)
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
        with pytest.warns(UserWarning, match="alpha0"):
            spec = GarchSpec(alpha0=0.0, alpha=(0.2,), beta=(0.3,))
        assert spec.alpha0 == 1e-6

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
