import numpy as np
import pytest

from norts import (
    ArmaSpec,
    InvalidInputError,
    NumericDegeneracyError,
    RngStream,
    Series,
    adf_test,
    kpss_test,
    ljung_box,
    simulate_arma,
)
from norts.series import _normalized


def _gaussian(n, seed, sid=0):
    return np.asarray(simulate_arma(ArmaSpec(), n, 0, RngStream(seed, sid)).values)


def ljung_box_oracle(x, lags):
    """Independent loop evaluation of the portmanteau statistic."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    mu = sum(x) / n
    g0 = sum((v - mu) ** 2 for v in x) / n
    q = 0.0
    for h in range(1, lags + 1):
        gh = sum((x[i + h] - mu) * (x[i] - mu) for i in range(n - h)) / n
        q += (gh / g0) ** 2 / (n - h)
    return n * (n + 2) * q


class TestLjungBox:
    def test_toy_sequence_matches_hand_oracle(self):
        x = 2.0 + 0.5 * np.array([(-1.0) ** t for t in range(24)])
        r = ljung_box(x, lags=5)
        assert r.statistic == pytest.approx(ljung_box_oracle(x, 5), rel=1e-10)
        assert r.lag_order == 5

    def test_oracle_on_fixture(self, s20):
        r = ljung_box(s20, lags=6)
        assert r.statistic == pytest.approx(ljung_box_oracle(s20.values, 6), rel=1e-10)

    def test_size_calibration(self):
        m, rej = 500, 0
        master = RngStream(1200)
        for j in range(m):
            x = simulate_arma(ArmaSpec(), 500, 0, master.substream(j))
            rej += ljung_box(x).p_value < 0.05
        assert 0.02 <= rej / m <= 0.08

    def test_strong_ar_detected(self):
        m, hits = 200, 0
        master = RngStream(1201)
        for j in range(m):
            x = simulate_arma(ArmaSpec(ar=(0.9,)), 500, 200, master.substream(j))
            hits += ljung_box(x).p_value < 0.01
        assert hits / m >= 0.99

    def test_lag_validation(self, s20):
        with pytest.raises(InvalidInputError):
            ljung_box(s20, lags=10)  # lags >= n/2
        with pytest.raises(InvalidInputError):
            ljung_box(s20, lags=0)


class TestAdf:
    def test_lag_order_formula(self):
        x = _gaussian(731, 1300)
        assert adf_test(x).lag_order == 9
        x = _gaussian(512, 1300, 1)
        assert adf_test(x).lag_order == 7

    def test_iid_clamps_at_floor(self):
        m, clamped = 200, 0
        master = RngStream(1010)
        for j in range(m):
            x = simulate_arma(ArmaSpec(), 500, 0, master.substream(j))
            r = adf_test(x)
            clamped += r.p_value <= 0.01 and r.bounded
        assert clamped / m >= 0.95

    def test_random_walk_not_rejected(self):
        # P(p >= 0.10) is 0.90 at best even under perfect calibration; the
        # augmented regression undershoots slightly in finite samples
        # (0.870 at this seed), while the decision at the 5% level clears
        # 90% comfortably
        m = 200
        master = RngStream(1011)
        p10 = fail_at_alpha = 0
        for j in range(m):
            w = np.cumsum(np.asarray(simulate_arma(ArmaSpec(), 500, 0, master.substream(j)).values))
            r = adf_test(Series(w))
            p10 += r.p_value >= 0.10
            fail_at_alpha += r.p_value >= 0.05
        assert p10 / m >= 0.85
        assert fail_at_alpha / m >= 0.90

    def test_conclusions_and_bounds(self):
        stationary = adf_test(_gaussian(400, 1302))
        assert stationary.p_value < 0.05  # rejects a unit root
        assert stationary.statistic < -3.4
        w = Series(np.cumsum(_gaussian(400, 1303)))
        drifting = adf_test(w)
        assert drifting.p_value >= 0.05
        assert 0.01 <= drifting.p_value <= 0.99

    def test_short_series_rejected(self, s20):
        with pytest.raises(InvalidInputError):
            adf_test(s20)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nearly_collinear_design_raises(self, seed):
        # full rank, but nearly collinear once the columns are scaled
        x = np.tile([0.0, 1.0], 125) + 1e-9 * np.random.default_rng(seed).standard_normal(250)
        with pytest.raises(NumericDegeneracyError, match="nearly collinear"):
            adf_test(x)


def adf_svd_oracle(x):
    """The ADF t-statistic from an SVD of the column-scaled design; two steps
    of iterative refinement on the residual keep the solution accurate on
    badly conditioned designs such as I(2) series."""
    x, _ = _normalized(x)
    n = x.size
    d = np.diff(x)
    k = int(np.floor((n - 1) ** (1 / 3)))
    rows = n - 1 - k
    level = x[k : n - 1]
    lags = [d[k - j : n - 1 - j] for j in range(1, k + 1)]
    design = np.column_stack(
        [np.ones(rows), np.arange(rows) - (rows - 1) / 2, *lags, level - level.mean()]
    )
    design /= np.linalg.norm(design, axis=0)
    y = d[k:]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    coef, resid = np.zeros(design.shape[1]), y
    for _ in range(3):
        coef = coef + vt.T @ ((u.T @ resid) / sv)
        resid = y - design @ coef
    sigma2 = (resid @ resid) / (rows - design.shape[1])
    return coef[-1] / np.sqrt(sigma2 * np.sum((vt[:, -1] / sv) ** 2))


def _adf_family(name, n, seed):
    z = np.random.default_rng(seed).standard_normal(n)
    ar1 = np.asarray(simulate_arma(ArmaSpec(ar=(0.5,)), n, 50, RngStream(seed)).values)
    return {
        "ar1": ar1,
        "random walk": np.cumsum(z),
        "I(2)": np.cumsum(np.cumsum(z)),
        "trend": np.arange(n) + z,
        "offset 1e6": 1e6 + ar1,
        "scale 1e5": 1e5 * np.cumsum(z),
        "scale 1e-5": 1e-5 * ar1,
    }[name]


class TestAdfOracle:
    @pytest.mark.parametrize("n", [30, 250, 1000, 10_000])
    @pytest.mark.parametrize(
        "family", ["ar1", "random walk", "I(2)", "trend", "offset 1e6", "scale 1e5", "scale 1e-5"]
    )
    def test_statistic_matches_svd_oracle(self, family, n):
        x = _adf_family(family, n, 1320 + n)
        assert adf_test(x).statistic == pytest.approx(adf_svd_oracle(x), rel=1e-11, abs=0)

    @pytest.mark.parametrize("family, n", [("trend", 100_000), ("I(2)", 50_000)])
    def test_long_series_match_svd_oracle(self, family, n):
        # long and badly conditioned, but not collinear
        x = _adf_family(family, n, 1321)
        r = adf_test(x)
        assert np.isfinite(r.statistic) and 0.0 <= r.p_value <= 1.0
        assert r.statistic == pytest.approx(adf_svd_oracle(x), rel=1e-11, abs=0)

    def test_zero_column_is_nearly_collinear(self):
        # the first lagged difference is zero on every row of the regression
        with pytest.raises(NumericDegeneracyError, match="nearly collinear"):
            adf_test([0.0] * 29 + [1.0])

    def test_exact_fit_raises(self, monkeypatch):
        # a zero residual pivot never reaches the division
        qr = np.linalg.qr

        def exact(a, mode):
            r = qr(a, mode=mode)
            r[-1, -1] = 0.0
            return r

        monkeypatch.setattr(np.linalg, "qr", exact)
        with pytest.raises(NumericDegeneracyError, match="fits the differences exactly"):
            adf_test(_gaussian(250, 1322))


class TestKpss:
    def test_iid_is_stationary(self):
        m = 200
        master = RngStream(1012)
        p10 = fail_at_alpha = 0
        for j in range(m):
            r = kpss_test(Series(np.asarray(simulate_arma(ArmaSpec(), 500, 0, master.substream(j)).values)))
            p10 += r.p_value >= 0.10
            fail_at_alpha += r.p_value >= 0.05
        assert p10 / m >= 0.85
        assert fail_at_alpha / m >= 0.90

    def test_random_walk_clamps_at_floor(self):
        m, clamped = 200, 0
        master = RngStream(1013)
        for j in range(m):
            w = np.cumsum(np.asarray(simulate_arma(ArmaSpec(), 500, 0, master.substream(j)).values))
            r = kpss_test(Series(w))
            clamped += r.p_value <= 0.01 and r.bounded
        assert clamped / m >= 0.95

    def test_truncation_lag(self):
        r = kpss_test(_gaussian(500, 1304))
        assert r.lag_order == int(np.floor(4 * (500 / 100) ** 0.25))

    def test_conclusion_reversed_null(self):
        r = kpss_test(_gaussian(400, 1305))
        assert r.p_value >= 0.05  # keeps its null of stationarity
        w = kpss_test(Series(np.cumsum(_gaussian(400, 1306))))
        assert w.p_value < 0.05

    @pytest.mark.parametrize("n", [30, 64, 65, 250, 1000])
    def test_statistic_equals_per_lag_loop(self, n):
        # the long-run variance from one dot product per lag, summed in
        # kpss_test's order, bit for bit
        for j, phi in enumerate((-0.5, 0.0, 0.5, 0.9) * 5):
            x, _ = _normalized(simulate_arma(ArmaSpec(ar=(phi,)), n, 50, RngStream(n, j)))
            e = x - np.mean(x)
            eta = float(np.sum(np.cumsum(e) ** 2)) / n**2
            lag = int(np.floor(4.0 * (n / 100.0) ** 0.25))
            lrv = float(e @ e) / n
            for i in range(1, lag + 1):
                lrv += 2.0 * (1.0 - i / (lag + 1.0)) * float(e[i:] @ e[:-i]) / n
            assert kpss_test(x).statistic == eta / lrv, (n, j)

    def test_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            kpss_test([3.0] * 50)


def test_adf_kpss_opposite_decisions_on_random_walk():
    # complementary nulls: ADF should fail to reject while KPSS rejects
    m, joint = 200, 0
    master = RngStream(1014)
    for j in range(m):
        w = Series(np.cumsum(np.asarray(simulate_arma(ArmaSpec(), 600, 0, master.substream(j)).values)))
        joint += (adf_test(w).p_value >= 0.05) and (kpss_test(w).p_value < 0.05)
    assert joint / m >= 0.90


def test_bounded_flag_set_exactly_when_clamped():
    from norts.stationarity import _TABLES

    table = _TABLES["dickey_fuller_trend"]
    sizes = np.asarray(table["sample_sizes"], dtype=float)
    grid = np.asarray(table["statistics"], dtype=float)
    master = RngStream(1307)
    for j in range(30):
        w = Series(np.cumsum(np.asarray(simulate_arma(ArmaSpec(), 300, 0, master.substream(j)).values)))
        r = adf_test(w)
        lo = float(np.interp(300, sizes, grid[:, 0]))
        hi = float(np.interp(300, sizes, grid[:, -1]))
        assert r.bounded == (r.statistic < lo or r.statistic > hi)
        assert 0.01 <= r.p_value <= 0.99
    hot = adf_test(_gaussian(300, 1308))
    assert hot.bounded and hot.p_value == 0.01
