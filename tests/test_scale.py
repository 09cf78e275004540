"""Every test at any representable scale and offset.

Each test takes its series through one input gate that scales it by the
exact power of two bringing its spread into [1, 2).  So a test either
returns a finite p-value in [0, 1] or raises a :class:`NortsError`, and two
inputs that differ by a factor 2**j give bit-identical outcomes.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norts import NortsError, RngStream, check
from norts.cli import main
from norts.report import METHODS, CheckConfig
from norts.report import test_dispatch as dispatch  # alias keeps pytest collection away
from norts.series import MIN_TEST_LENGTH
from norts.stationarity import MIN_UNIT_ROOT_LENGTH

# Options that keep the seeded methods cheap.
OPTIONS = {"rp": {"k": 4}, "vavra": {"replications": 100}}
MINIMUM = {"adf": MIN_UNIT_ROOT_LENGTH, "kpss": MIN_UNIT_ROOT_LENGTH}


def outcome(method, x):
    """(statistics and p-value) of the method on x, or (error class, message)."""
    spec = METHODS[method]
    [r] = spec.batch(np.asarray(x, dtype=float)[None], [RngStream(17)], **OPTIONS.get(method, {}))
    if isinstance(r, NortsError):
        return type(r), str(r)
    p = r.p_value
    assert math.isfinite(p) and 0.0 <= p <= 1.0, (method, p)
    return (*spec.statistics(r).values(), p)


def exact_shift_range(x):
    """The j for which x * 2**j is exact: no value overflows or leaves the
    normal range."""
    nonzero = np.abs(x[x != 0])
    if nonzero.size == 0:
        return -1000, 1000
    emin = int(np.frexp(nonzero.min())[1])
    emax = int(np.frexp(nonzero.max())[1])
    return max(-1000, -1021 - emin), min(1000, 1024 - emax)


@st.composite
def series(draw, minimum):
    n = draw(st.integers(minimum - 2, minimum + 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = gen.standard_t(draw(st.sampled_from([3.0, 30.0])), n)
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:  # ties
        z = np.round(z, decimals)
    start, length = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
    z[start : start + length] = z[start]  # a constant run, at full length a constant series
    offset = draw(st.sampled_from([0.0, 1.0, -7.25, 1e3, -1e9, 1e15]))
    return offset + z, offset


@pytest.mark.parametrize("method", tuple(METHODS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_total_and_exact_under_power_of_two_scaling(method, data):
    x, offset = data.draw(series(MINIMUM.get(method, MIN_TEST_LENGTH)), label="series")
    lo, hi = exact_shift_range(x)
    j = data.draw(st.integers(lo, hi), label="j")
    base, scaled = outcome(method, x), outcome(method, np.ldexp(x, j))
    if abs(offset) < 1e15:  # at 1e15 the data are quantized: totality only
        assert scaled == base


# A 200-point N(0, 1) series at extreme scales and offsets, on which each
# test used to fail in its own way.
Z200 = RngStream(7)._generator().standard_normal(200)
EXTREMES = {
    "x1e300": 1e300 * Z200,
    "x1e150": 1e150 * Z200,
    "x1e-150": 1e-150 * Z200,
    "x1e-300": 1e-300 * Z200,
    "1e9+x": 1e9 + Z200,
}


@pytest.mark.parametrize("method", tuple(METHODS))
@pytest.mark.parametrize("case", tuple(EXTREMES))
def test_extreme_scales_and_offsets_give_the_unit_scale_result(case, method):
    base, r = outcome(method, Z200), outcome(method, EXTREMES[case])
    assert all(isinstance(v, float) for v in r), r
    # 1e9 + x keeps x only to about 1e-7
    np.testing.assert_allclose(r, base, rtol=1e-4 if case == "1e9+x" else 1e-9)


# A 120-point series with mean/sd ratio 1e5, on which the Dickey-Fuller
# design used to be rank deficient.
OFFSET_120 = 1e9 + 1e4 * RngStream(8)._generator().standard_normal(120)


def test_adf_runs_far_from_the_origin():
    r = outcome("adf", OFFSET_120)
    base = outcome("adf", (OFFSET_120 - 1e9) / 1e4)
    np.testing.assert_allclose(r, base, rtol=1e-6)


def test_check_runs_far_from_the_origin(tmp_path, capsys):
    r = check(OFFSET_120, CheckConfig(normality="lobato"))
    assert math.isfinite(r.stationarity.p_value) and math.isfinite(r.normality.p_value)
    p = tmp_path / "far.csv"
    p.write_text("\n".join(repr(v) for v in OFFSET_120.tolist()) + "\n")
    assert main(["check", "--normality", "lobato", str(p)]) == 0
    assert "Augmented Dickey-Fuller Test" in capsys.readouterr().out


# Awkward inputs: periodic, sine, step, spike, trend, random-walk and
# integer-valued series, each at three lengths and four noise levels.
def _awkward_series():
    gen = np.random.default_rng(2500)
    for n in (30, 64, 250):
        t = np.arange(n)
        families = {
            "period-2": (t % 2).astype(float),
            "sine": np.sin(2 * np.pi * t / 7),
            "step": (t >= n // 2).astype(float),
            "spike": (t == n // 3).astype(float),
            "trend": t.astype(float),
            "random walk": np.cumsum(gen.standard_normal(n)),
            "integer": np.round(3 * gen.standard_normal(n)),
        }
        for family, x in families.items():
            for noise in (0.0, 1e-12, 1e-9, 1e-6):
                yield f"{family} n={n} noise={noise:g}", x + noise * gen.standard_normal(n)


AWKWARD = dict(_awkward_series())


@pytest.mark.parametrize("method", tuple(METHODS))
def test_awkward_inputs_give_a_p_value_or_a_norts_error(method):
    # through test_dispatch, so the normality tests also run the advisory ADF
    rng = RngStream(2501) if METHODS[method].seeded else None
    for case, x in AWKWARD.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                p = dispatch(method, x, rng=rng, **OPTIONS.get(method, {})).p_value
            except NortsError:
                continue
        assert math.isfinite(p) and 0.0 <= p <= 1.0, (case, p)
