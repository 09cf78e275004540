import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from norts import (
    ArmaSpec,
    EppsResult,
    InnovationLaw,
    InvalidInputError,
    Lambda,
    NumericDegeneracyError,
    RngStream,
    ScenarioSpec,
    Series,
    ThetaParams,
    default_lambda,
    epps_test,
    g_hat,
    g_theta,
    g_vector,
    qn,
    run_scenario,
    simulate_arma,
    spectral_zero,
)

LAM = Lambda((0.7, 1.9))

GAUSSIAN_AR1 = [(0.0, 50, 71), (0.4, 100, 72), (-0.4, 250, 73), (0.25, 1000, 74)]
NON_NORMAL = {
    "lognormal": InnovationLaw.lognormal(),
    "t3": InnovationLaw.student_t(3),
    "beta": InnovationLaw.beta(7, 1),
}


def spectral_bruteforce(x, lam):
    """Loop evaluation of the Bartlett-weighted long-run covariance."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    rows = np.array([g_vector(v, lam) for v in x])
    mean = rows.mean(axis=0)
    d = rows - mean
    m = int(np.floor(n ** 0.4))
    mat = np.zeros((d.shape[1], d.shape[1]))
    for t in range(n):
        mat += np.outer(d[t], d[t])
    for i in range(1, m + 1):
        w = 1.0 - i / m
        cross = np.zeros_like(mat)
        for t in range(n - i):
            cross += np.outer(d[t], d[t + i])
        mat += w * (cross + cross.T)
    return mat / n


def nelder_mead_min(s):
    """Reference minimum of the epps form: scipy's Nelder-Mead with the
    tolerances of the earlier releases, in the same standardized
    coordinates and from the same start as the library's search."""
    x = s.values
    mu = float(np.mean(x))
    g0 = float(np.mean((x - mu) ** 2))
    sd = np.sqrt(g0)
    lam = default_lambda(s)
    ghat = g_hat(s, lam)
    weight = pinv_bruteforce(spectral_zero(s, lam))

    def objective(u):
        v = ghat - g_theta(ThetaParams(mu + u[0] * sd, g0 * np.exp(u[1])), lam)
        return float(v @ weight @ v)

    res = minimize(
        objective, x0=np.zeros(2), method="Nelder-Mead",
        options={"fatol": 1e-10, "xatol": 1e-8, "maxiter": 500},
    )
    assert res.success
    return float(res.fun)


def pinv_bruteforce(mat, rcond=1e-10):
    """Explicit SVD pseudoinverse with relative singular-value cutoff."""
    u, sv, vt = np.linalg.svd(mat)
    keep = sv > rcond * sv.max()
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    return (vt.T * inv) @ u.T


class TestGVector:
    def test_at_zero(self):
        np.testing.assert_array_equal(g_vector(0.0, LAM), [1.0, 0.0, 1.0, 0.0])

    def test_half_period_first_pair(self):
        v = g_vector(np.pi / LAM.points[0], LAM)
        assert v[0] == pytest.approx(-1.0, abs=1e-12)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_pythagorean_identity(self):
        rng = RngStream(41)._generator()
        for _ in range(50):
            lam = Lambda(tuple(np.sort(rng.uniform(0.1, 5.0, 3))))
            v = g_vector(rng.normal() * 10, lam)
            assert np.all(np.abs(v) <= 1.0 + 1e-15)
            pairs = v.reshape(-1, 2)
            np.testing.assert_allclose((pairs**2).sum(axis=1), 1.0, atol=1e-12)


class TestGTheta:
    def test_zero_mean_kills_imaginary_parts(self):
        v = g_theta(ThetaParams(0.0, 2.0), LAM)
        np.testing.assert_array_equal(v[1::2], 0.0)

    def test_small_variance_limit(self):
        theta = ThetaParams(1.3, 1e-14)
        v = g_theta(theta, LAM)
        pts = np.asarray(LAM.points)
        np.testing.assert_allclose(v[0::2], np.cos(pts * 1.3), atol=1e-12)
        np.testing.assert_allclose(v[1::2], np.sin(pts * 1.3), atol=1e-12)

    def test_direct_evaluation(self):
        v = g_theta(ThetaParams(1.0, 1.0), Lambda((1.0, 2.0)))
        assert v[0] == pytest.approx(np.exp(-0.5) * np.cos(1.0), abs=1e-12)
        assert v[1] == pytest.approx(np.exp(-0.5) * np.sin(1.0), abs=1e-12)
        assert v[0] == pytest.approx(0.3277, abs=5e-5)
        assert v[1] == pytest.approx(0.5104, abs=5e-5)


class TestGHat:
    def test_constant_series(self):
        v = g_hat([2.5] * 12, LAM)
        np.testing.assert_allclose(v, g_vector(2.5, LAM), atol=1e-15)

    def test_bounded(self, s50):
        assert np.all(np.abs(g_hat(s50, LAM)) <= 1.0)

    def test_double_loop_oracle(self, s20):
        n = len(s20)
        oracle = np.zeros(4)
        for x in s20.values:
            for j, lam in enumerate(LAM.points):
                oracle[2 * j] += np.cos(lam * x)
                oracle[2 * j + 1] += np.sin(lam * x)
        oracle /= n
        np.testing.assert_allclose(g_hat(s20, LAM), oracle, atol=1e-12)


class TestSpectralZero:
    def test_symmetric_exactly(self, s50):
        mat = spectral_zero(s50, LAM)
        np.testing.assert_array_equal(mat, mat.T)

    def test_constant_series_zero_matrix(self):
        mat = spectral_zero([1.0] * 25, LAM)
        np.testing.assert_allclose(mat, 0.0, atol=1e-25)

    def test_bruteforce_oracle(self, s20):
        mat = spectral_zero(s20, LAM)
        np.testing.assert_allclose(mat, spectral_bruteforce(s20.values, LAM), atol=1e-12)

    def test_iid_matches_monte_carlo_covariance(self):
        # for i.i.d. data the long-run covariance reduces to the plain
        # covariance of the moment vector
        n = 50_000
        s = simulate_arma(ArmaSpec(), n, 0, RngStream(55))
        lam = Lambda((1.0, 2.0))
        mat = spectral_zero(s, lam)
        rows = np.array([g_vector(v, lam) for v in s.values])
        oracle = np.cov(rows, rowvar=False, bias=True)
        assert np.linalg.norm(mat - oracle) <= 0.10 * np.linalg.norm(oracle)

    def test_positive_semidefinite(self, s50):
        mat = spectral_zero(s50, LAM)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12


class TestQn:
    def test_zero_mismatch_gives_zero(self, s50):
        weight = np.eye(4)
        v = np.zeros(4)
        assert v @ weight @ v == 0.0  # quadratic form sanity
        theta = ThetaParams(0.0, 1.0)
        assert qn(s50, theta, LAM) >= 0.0

    def test_independent_svd_oracle(self, s50):
        mu = float(np.mean(s50.values))
        g0 = float(np.mean((s50.values - mu) ** 2))
        theta = ThetaParams(mu, g0)
        v = g_hat(s50, LAM) - g_theta(theta, LAM)
        oracle = float(v @ pinv_bruteforce(spectral_bruteforce(s50.values, LAM)) @ v)
        assert qn(s50, theta, LAM) == pytest.approx(oracle, abs=1e-8)


class TestEppsTest:
    def test_ar2_beta_series_rejected(self):
        spec = ArmaSpec(ar=(0.5, 0.2), innovation=InnovationLaw.beta(9, 1))
        s = simulate_arma(spec, 250, 500, RngStream(298))
        r = epps_test(s)
        assert isinstance(r, EppsResult)
        assert r.df == 2
        assert r.statistic > 5.0
        assert r.p_value < 0.05

    def test_gaussian_size_calibration(self):
        spec = ScenarioSpec(phi=0.0, law=InnovationLaw.normal(), n=250, method="epps", trials=500)
        result = run_scenario(spec, RngStream(5151))
        assert 0.03 <= result.rate <= 0.11

    def test_affine_invariance_default_lambda(self, s50):
        base = epps_test(s50).statistic
        for a, b in [(3.0, -2.0), (-0.4, 7.0), (250.0, 0.3)]:
            mapped = epps_test(Series(a * s50.values + b)).statistic
            assert mapped == pytest.approx(base, rel=1e-6, abs=1e-9)

    def test_minimizer_beats_random_probes(self, s50):
        r = epps_test(s50)
        lam = default_lambda(s50)
        q_star = qn(s50, r.theta_hat, lam)
        rng = RngStream(61)._generator()
        mu = float(np.mean(s50.values))
        sd = float(np.std(s50.values))
        for _ in range(100):
            theta = ThetaParams(mu + rng.normal() * sd, sd**2 * np.exp(rng.normal()))
            assert qn(s50, theta, lam) >= q_star - 1e-12

    def test_statistic_nonnegative_p_in_unit_interval(self, s20):
        r = epps_test(s20)
        assert r.statistic >= 0.0
        assert 0.0 <= r.p_value <= 1.0
        assert r.converged

    def test_short_series_rejected(self):
        with pytest.raises(InvalidInputError):
            epps_test(np.arange(9, dtype=float))

    def test_zero_variance_rejected(self):
        with pytest.raises(InvalidInputError, match="zero variance"):
            epps_test([2.0] * 30)

    def test_oversized_grid_rejected(self, s50):
        lam = Lambda(tuple(np.linspace(0.5, 5.0, 9)))
        with pytest.raises(InvalidInputError, match="grids larger"):
            epps_test(s50, lam)

    @pytest.mark.parametrize("phi,n,seed", GAUSSIAN_AR1)
    def test_matches_nelder_mead_on_gaussian_ar1(self, phi, n, seed):
        s = simulate_arma(ArmaSpec(ar=(phi,) if phi else ()), n, 200, RngStream(seed))
        r = epps_test(s)
        q_nm = nelder_mead_min(s)
        assert r.converged
        assert r.statistic == pytest.approx(n * q_nm, rel=1e-9)
        assert qn(s, r.theta_hat, default_lambda(s)) <= q_nm + 1e-12

    @pytest.mark.parametrize("law", NON_NORMAL.values(), ids=NON_NORMAL.keys())
    @pytest.mark.parametrize("n", [100, 250])
    def test_minimum_is_stationary_on_non_normal_laws(self, law, n):
        s = simulate_arma(ArmaSpec(ar=(0.3,), innovation=law), n, 200, RngStream(n))
        r = epps_test(s)
        assert r.converged
        lam = default_lambda(s)
        sd = float(np.std(s.values))

        def q(u0, u1):
            theta = ThetaParams(r.theta_hat.mu + u0 * sd, r.theta_hat.sigma2 * np.exp(u1))
            return qn(s, theta, lam)

        h = 1e-5
        q0 = q(0.0, 0.0)
        grad = np.array([q(h, 0.0) - q(-h, 0.0), q(0.0, h) - q(0.0, -h)]) / (2 * h)
        hess = np.empty((2, 2))
        hess[0, 0] = (q(h, 0.0) - 2 * q0 + q(-h, 0.0)) / h**2
        hess[1, 1] = (q(0.0, h) - 2 * q0 + q(0.0, -h)) / h**2
        hess[0, 1] = hess[1, 0] = (q(h, h) - q(h, -h) - q(-h, h) + q(-h, -h)) / (4 * h**2)
        assert np.abs(grad).max() <= 1e-6
        assert np.linalg.eigvalsh(hess).min() > 0.0

    @pytest.mark.parametrize(
        "law",
        [InnovationLaw.lognormal(), InnovationLaw.student_t(3), InnovationLaw.student_t(1)],
        ids=["lognormal", "t3", "t1"],
    )
    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_heavy_tails_emit_no_warnings(self, law, n):
        s = simulate_arma(ArmaSpec(ar=(0.4,), innovation=law), n, 200, RngStream(n + 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = epps_test(s)
        assert np.isfinite(r.statistic)
        assert 0.0 <= r.p_value <= 1.0

    @pytest.mark.parametrize(
        "x", [np.r_[np.zeros(199), 1.0], np.tile([0.0, 1.0], 100)],
        ids=["single-spike", "alternating"],
    )
    def test_rank_one_weight_rejected(self, x):
        # two-valued data: every moment vector lies on one line, so the
        # long-run covariance has rank 1 and no degrees of freedom remain
        with pytest.raises(NumericDegeneracyError, match="rank 1"):
            epps_test(x)

    def test_df_is_rank_minus_two(self):
        # four-valued data: the moment vectors span a 3-dimensional affine set
        x = RngStream(7)._generator().integers(0, 4, 200).astype(float)
        r = epps_test(x)
        assert r.df == 1
        assert 0.0 <= r.p_value <= 1.0

    def test_lambda_validation(self):
        with pytest.raises(InvalidInputError):
            Lambda((1.0,))
        with pytest.raises(InvalidInputError):
            Lambda((0.0, 1.0))
        with pytest.raises(InvalidInputError):
            Lambda((2.0, 1.0))
