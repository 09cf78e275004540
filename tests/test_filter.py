"""``series._arma_filter`` against scipy's ``lfilter``, its oracle here.

The filter does lfilter's operations in lfilter's order, so every output
must equal lfilter's: by value (NaN where lfilter has NaN), and bit for bit
wherever lfilter's output is neither zero nor NaN.  A zero may differ in
sign only, and NaN payloads are not compared.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from norts import ArmaSpec, InnovationLaw, RngStream, simulate_arma
from norts import series
from norts.series import _arma_filter

# 1-D, 2-D and 3-D
SHAPES = [(257,), (9, 130), (2, 3, 70)]


def lfilter_arma(eps, ar=(), ma=()):
    return lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar, dtype=float)], eps, axis=-1)


def assert_same_as_lfilter(eps, ar=(), ma=()):
    expected = lfilter_arma(eps, ar, ma)
    got = _arma_filter(eps, ar, ma)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    bits = (expected != 0) & ~np.isnan(expected)
    np.testing.assert_array_equal(got.view(np.uint64)[bits], expected.view(np.uint64)[bits])


def coefficients(rng, count):
    """``count`` coefficients with absolute sum 0.95: a stationary AR part."""
    c = rng.uniform(-1.0, 1.0, count)
    return tuple(0.95 * c / max(np.abs(c).sum(), 1.0))


@pytest.mark.parametrize("q", range(4))
@pytest.mark.parametrize("p", range(31))
def test_equals_lfilter(p, q):
    rng = np.random.default_rng(1000 * p + q)
    ar, ma = coefficients(rng, p), tuple(rng.uniform(-1.5, 1.5, q))
    for shape in SHAPES:
        assert_same_as_lfilter(rng.standard_t(3, shape), ar, ma)


@pytest.mark.parametrize("ma", [(), (0.3,), (-0.5, 0.2)])
def test_near_unit_root(ma):
    rng = np.random.default_rng(99)
    for shape in [(1100,), (20, 1100)]:
        assert_same_as_lfilter(rng.standard_normal(shape), (0.99,), ma)
        assert_same_as_lfilter(rng.standard_normal(shape), (1.5, -0.51), ma)


@pytest.mark.parametrize(
    "ar, ma",
    [((0.5,), ()), ((0.6, -0.3, 0.1), ()), ((0.0, 0.4), ()), ((0.5,), (0.3,)), ((0.4,), (0.2, -0.1, 0.3)), ((), (0.3,)), ((), ())],
)
def test_rows_with_inf_or_nan(ar, ma):
    # lfilter's products x * 0 turn an inf input into NaN for the rest of the
    # row, and so must the filter's; rows without them stay exact
    rng = np.random.default_rng(5)
    eps = rng.standard_normal((6, 150))
    eps[0, 3] = np.inf
    eps[1, 70] = -np.inf
    eps[2, 100] = np.nan
    eps[3, [20, 21]] = [np.inf, -np.inf]
    eps[4, 149] = np.inf
    assert_same_as_lfilter(eps, ar, ma)
    for row in eps:
        assert_same_as_lfilter(row, ar, ma)


def test_overflow_to_inf():
    eps = np.full((2, 200), 1e307)
    eps[1] *= -1.0
    for ar, ma in [((0.99,), ()), ((0.9, 0.09), ()), ((0.99,), (0.5,))]:
        assert_same_as_lfilter(eps, ar, ma)
        assert_same_as_lfilter(eps[0], ar, ma)


def test_zero_input_stays_zero():
    eps = np.zeros((3, 100))
    eps[1] = -0.0
    for ar, ma in [((0.5,), ()), ((-0.5, 0.2), ()), ((0.5,), (0.3,)), ((), (0.3,))]:
        assert_same_as_lfilter(eps, ar, ma)
    # with no coefficients at all, -0.0 turns into 0.0 as in lfilter
    np.testing.assert_array_equal(_arma_filter(eps).view(np.uint64), lfilter_arma(eps).view(np.uint64))


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
def test_empty_input(shape):
    for ar, ma in [((0.5,), ()), ((0.5, -0.2), ()), ((0.5,), (0.3,))]:
        assert_same_as_lfilter(np.zeros(shape), ar, ma)


def test_one_series_equals_its_row_in_a_block():
    rng = np.random.default_rng(11)
    eps = rng.standard_normal((5, 300))
    for ar, ma in [((0.4,), ()), ((0.5, -0.2, 0.1), ()), ((0.5,), (0.3, 0.1))]:
        block = _arma_filter(eps, ar, ma)
        for row, filtered in zip(eps, block):
            np.testing.assert_array_equal(_arma_filter(row, ar, ma).view(np.uint64), filtered.view(np.uint64))


def test_simulate_arma_is_the_lfilter_path():
    spec = ArmaSpec(ar=(0.5, -0.2), ma=(0.3,), innovation=InnovationLaw.student_t(3))
    x = simulate_arma(spec, n=300, burn_in=50, rng=RngStream(4))
    eps = series.sample(spec.innovation, RngStream(4), size=350)
    expected = lfilter_arma(eps, spec.ar, spec.ma)[50:]
    np.testing.assert_array_equal(x.values.view(np.uint64), expected.view(np.uint64))
