from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from norts import (
    ArmaSpec,
    InnovationLaw,
    InvalidInputError,
    NumericDegeneracyError,
    RngStream,
    ScenarioSpec,
    Series,
    fk_hat,
    lobato_test,
    run_scenario,
    simulate_arma,
)
from norts.lobato import _lobato_rows, _moments
from norts.series import _lag_sums, _normalized


def fk_bruteforce(x, k):
    """Direct triple-loop evaluation of the studentization sum."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    mu = sum(x) / n

    def gamma(h):
        if h >= n:
            return 0.0
        return sum((x[i + h] - mu) * (x[i] - mu) for i in range(n - h)) / n

    total = 0.0
    for t in range(-(n - 1), n):
        total += gamma(abs(t)) * (gamma(abs(t)) + gamma(n - abs(t))) ** (k - 1)
    return total


class TestFkHat:
    def test_constant_series_is_zero(self):
        assert fk_hat([3.0] * 15, 3) == 0.0
        assert fk_hat([3.0] * 15, 4) == 0.0

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("a", [0.5, 2.0, -3.0])
    def test_scale_homogeneity(self, s20, k, a):
        scaled = Series(a * s20.values)
        assert fk_hat(scaled, k) == pytest.approx(a ** (2 * k) * fk_hat(s20, k), rel=1e-10)

    @pytest.mark.parametrize("k", [3, 4])
    def test_bruteforce_oracle_on_fixture(self, s20, k):
        assert fk_hat(s20, k) == pytest.approx(fk_bruteforce(s20.values, k), rel=1e-10, abs=1e-10)

    def test_rejects_bad_order(self, s20):
        with pytest.raises(InvalidInputError):
            fk_hat(s20, 2)
        with pytest.raises(InvalidInputError):
            fk_hat(s20, 5)


@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=10, max_size=30),
    k=st.sampled_from([3, 4]),
)
@settings(max_examples=80, deadline=None)
def test_fk_hat_matches_bruteforce_property(values, k):
    x = np.array(values)
    assert fk_hat(x, k) == pytest.approx(fk_bruteforce(x, k), rel=1e-10, abs=1e-10)


# at these two series C pow missed the rescaled gamma(0)**k by an ulp
@example([0.054, 0.273, -0.982, -1.107, 0.2, -0.467, 0.236, 0.76, -1.649, 0.254, 1.225, -0.298], 4, 1)
@example([1.194, 0.1, 0.559, 0.354, -0.305, 0.634, -1.012, -0.407, 0.164, -2.727, 1.36, -0.218], 3, -3)
@given(
    values=st.lists(
        st.floats(-10, 10).filter(lambda v: v == 0.0 or abs(v) > 1e-6), min_size=10, max_size=30
    ),
    k=st.sampled_from([3, 4]),
    j=st.integers(-60, 60),
)
@settings(max_examples=100, deadline=None)
def test_fk_hat_scales_exactly_by_powers_of_two(values, k, j):
    # gamma scales by 4**j exactly and F_k is a product of k gammas per term
    x = np.array(values)
    assert fk_hat(x * 2.0**j, k) == 2.0 ** (2 * k * j) * fk_hat(x, k)


def lobato_one_series(x):
    """lobato_test's arithmetic on one series, step by step: products of
    the centred data for the moments, of gamma(0) and of the lag pairs for
    the studentization sums, Python's scalar power on the moments, and one
    exp for the chi-square(2) tail."""
    n = len(x)
    d = x - np.mean(x)
    d2 = d * d
    mu2, mu3, mu4 = (float(np.mean(v)) for v in (d2, d2 * d, d2 * d2))
    g = np.correlate(d, d, mode="full")[n - 1 :] / n
    tail = g[1:]
    pair = tail + tail[::-1]
    g02 = g[0] * g[0]
    f3 = float(g02 * g[0] + 2.0 * np.sum(tail * (pair * pair)))
    f4 = float(g02 * g02 + 2.0 * np.sum(tail * (pair * pair * pair)))
    skew = n * mu3**2 / (6.0 * f3)
    kurt = n * (mu4 - 3.0 * mu2**2) ** 2 / (24.0 * f4)
    return skew, kurt, float(np.exp(-(skew + kurt) / 2.0))


KERNEL_LAWS = (
    InnovationLaw.student_t(3),
    InnovationLaw.lognormal(),
    InnovationLaw.chi_squared(10),
    InnovationLaw.normal(),
)


def test_rows_kernel_matches_one_series_arithmetic_bit_for_bit():
    for i in range(400):
        spec = ArmaSpec(ar=(0.3,), innovation=KERNEL_LAWS[i % 4])
        s = simulate_arma(spec, 10 + 7 * (i % 41), 50, RngStream(i, stream_id=9))
        x = s.values * 10.0 ** (i % 11 - 5)
        r = lobato_test(x)
        assert (r.skewness_term, r.kurtosis_term, r.p_value) == lobato_one_series(x), i


@pytest.mark.parametrize("n", [10, 11, 12, 100, 250])
def test_block_autocovariances_equal_per_row_correlate(n):
    # the lag sums of lobato's kernel: one stacked dot per lag for a block,
    # np.correlate for one row and for every row below n = 12
    gen = np.random.default_rng(n)
    x = np.vstack([gen.standard_t(3, (100, n)), gen.lognormal(size=(100, n)) * 1e-3])
    d = x - x.mean(axis=1, keepdims=True)
    expected = np.array([np.correlate(row, row, mode="full")[n - 1 :] for row in d])
    np.testing.assert_array_equal(_lag_sums(d, n - 1), expected)
    np.testing.assert_array_equal(_lag_sums(d[:1], n - 1), expected[:1])


def test_rows_kernel_equals_lobato_test_row_by_row():
    # each row is scaled on its own, so one block can hold every scale
    scales = (1e-300, 1e-110, 1e-5, 1.0, 1e5, 1e150, 1e300)
    x = np.array([
        simulate_arma(ArmaSpec(ar=(0.3,), innovation=KERNEL_LAWS[i % 4]), 100, 50, RngStream(i, stream_id=10)).values
        * scales[i % 7]
        for i in range(400)
    ])
    x[7] = 3.0  # zero variance
    x[11] = np.tile([0.0, 1.0], 50)  # F3 = 0 in exact arithmetic, negative here
    rows = _lobato_rows(x)
    raised = []
    for i, row in enumerate(x):
        try:
            r = lobato_test(row)
        except (InvalidInputError, NumericDegeneracyError) as exc:
            raised.append(i)
            assert (type(rows[i]), str(rows[i])) == (type(exc), str(exc)), i
            continue
        assert rows[i] == r, i
    assert raised == [7, 11]
    assert str(rows[7]) == "series has zero variance"
    # a block too short for the test: every row gets the gate's length error
    short = _lobato_rows(x[:2, :9])
    assert [(type(e), str(e)) for e in short] == [
        (InvalidInputError, "test requires at least 10 observations, got 9")
    ] * 2


def gate_accepts(values):
    try:
        _normalized(values)
    except InvalidInputError:
        return False
    return True


@given(values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=10, max_size=60))
@example(values=[0.0] * 9 + [5e-324])
@settings(max_examples=80, deadline=None)
def test_moments_near_exact_fraction_moments(values):
    # the kernel's moments, on the centred data at unit spread that it sees;
    # the gate also rejects a spread that underflows, as in [0.0] * 9 + [5e-324]
    assume(gate_accepts(values))
    x, _ = _normalized(values)
    d = x - x.mean()
    _, mu3, mu4 = (float(m[0]) for m in _moments(d[None, :]))
    exact = [Fraction(v) for v in d.tolist()]
    for k, mu in ((3, mu3), (4, mu4)):
        scale = float(sum(abs(v) ** k for v in exact)) / len(exact)
        assert abs(Fraction(mu) - sum(v**k for v in exact) / len(exact)) <= 1e-14 * scale


class TestLobatoTest:
    def test_terms_compose_statistic(self, s50):
        r = lobato_test(s50)
        assert r.statistic == pytest.approx(r.skewness_term + r.kurtosis_term, rel=1e-14)
        assert r.skewness_term >= 0 and r.kurtosis_term >= 0
        assert r.df == 2
        assert 0 <= r.p_value <= 1

    def test_naive_loop_oracle(self, s20, s50):
        # naive-loop central moments and brute-force studentization sums
        for s in (s20, s50):
            x = s.values
            n = len(x)
            mu = sum(x) / n
            mu2, mu3, mu4 = (sum((v - mu) ** k for v in x) / n for k in (2, 3, 4))
            skew = n * mu3**2 / (6.0 * fk_bruteforce(x, 3))
            kurt = n * (mu4 - 3.0 * mu2**2) ** 2 / (24.0 * fk_bruteforce(x, 4))
            r = lobato_test(s)
            assert r.skewness_term == pytest.approx(skew, rel=1e-10)
            assert r.kurtosis_term == pytest.approx(kurt, rel=1e-10)

    def test_ma3_gamma_series_rejected(self):
        # MA(3) driven by skewed gamma innovations: clearly non-normal marginal
        spec = ArmaSpec(ma=(0.2, 0.3, -0.4), innovation=InnovationLaw.gamma(3, 6))
        s = simulate_arma(spec, 250, 500, RngStream(298))
        r = lobato_test(s)
        assert r.p_value < 0.05

    def test_affine_invariance(self, s50):
        base = lobato_test(s50).statistic
        for a, b in [(2.5, 1.0), (-0.7, 3.0), (100.0, -50.0)]:
            mapped = lobato_test(Series(a * s50.values + b)).statistic
            assert mapped == pytest.approx(base, rel=1e-10)

    def test_gaussian_size_calibration(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.normal(), n=250, method="lobato", trials=500
        )
        result = run_scenario(spec, RngStream(5150))
        assert 0.03 <= result.rate <= 0.09

    def test_short_series_rejected(self):
        with pytest.raises(InvalidInputError):
            lobato_test(np.arange(9, dtype=float))

    def test_zero_variance_rejected(self):
        with pytest.raises(InvalidInputError, match="zero variance"):
            lobato_test([1.0] * 20)

    @pytest.mark.parametrize("scale", [1e150, 1e300, 1e-110, 1e-300])
    def test_extreme_scale_gives_finite_p_value(self, s50, scale):
        # the moments of these series over- or underflow double precision at
        # their own scale; the test takes them at unit spread
        base = lobato_test(s50)
        r = lobato_test(scale * s50.values)
        assert 0.0 <= r.p_value <= 1.0
        assert r.statistic == pytest.approx(base.statistic, rel=1e-10)

    def test_nonpositive_studentization_sum_surfaces_degeneracy(self):
        # a period-2 series: F3 is zero in exact arithmetic and -3.5e-18 here
        with pytest.raises(NumericDegeneracyError, match=r"studentization sum \(F3=-3.46945e-18"):
            lobato_test(np.tile([0.0, 1.0], 10))
