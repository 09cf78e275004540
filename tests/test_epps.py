import math
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
    NortsError,
    NumericDegeneracyError,
    RngStream,
    ScenarioSpec,
    Series,
    ThetaParams,
    epps_test,
    g_hat,
    g_theta,
    g_vector,
    qn,
    run_scenario,
    simulate_arma,
    spectral_zero,
)
from norts.epps import (
    NEWTON_MAX_STEP,
    NEWTON_MAXITER,
    NEWTON_MIN_DAMPING,
    NEWTON_RTOL,
    _epps_rows,
    _grid,
    _lockstep,
    _prepare,
    _results,
    _search,
)

LAM = Lambda((0.7, 1.9))

GAUSSIAN_AR1 = [(0.0, 50, 71), (0.4, 100, 72), (-0.4, 250, 73), (0.25, 1000, 74)]
NON_NORMAL = {
    "lognormal": InnovationLaw.lognormal(),
    "t3": InnovationLaw.student_t(3),
    "beta": InnovationLaw.beta(7, 1),
}


def default_grid(s):
    """epps_test's default grid: (1, 2) over the divisor-n standard deviation."""
    d = s.values - np.mean(s.values)
    return Lambda(tuple(_grid(float(np.mean(d * d)))))


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
    lam = Lambda(tuple(_grid(g0)))
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
        lam = default_grid(s50)
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
        assert qn(s, r.theta_hat, default_grid(s)) <= q_nm + 1e-12

    @pytest.mark.parametrize("law", NON_NORMAL.values(), ids=NON_NORMAL.keys())
    @pytest.mark.parametrize("n", [100, 250])
    def test_minimum_is_stationary_on_non_normal_laws(self, law, n):
        s = simulate_arma(ArmaSpec(ar=(0.3,), innovation=law), n, 200, RngStream(n))
        r = epps_test(s)
        assert r.converged
        lam = default_grid(s)
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


# Reference copy of the damped Newton search as it ran before rows were
# stacked: one series, its 2x2 algebra in Python floats.  The stacked search
# must give every row exactly this.


def minimize_qn_one_row(ghat, weight, mu0, g0, pts):
    """The damped Newton search on one row, in Python floats: a reference
    copy of the one-series search that the stacked ``_search`` replaced.
    Returns (mu, sigma2, q, converged)."""
    size = pts.size
    order = np.arange(2 * size).reshape(size, 2).T.ravel()
    ghat = ghat[order]
    weight = weight[np.ix_(order, order)]
    sd = np.sqrt(g0)
    b = pts * sd

    def evaluate(u0, u1):
        # cosine block first, then sine block, to match the reordered W
        with np.errstate(over="ignore", invalid="ignore"):
            sigma2 = g0 * np.exp(u1)
            a = pts * pts * sigma2 / 2.0
            damp = np.exp(-a)
            ang = pts * (mu0 + u0 * sd)
            gc = damp * np.cos(ang)
            gs = damp * np.sin(ang)
            v = ghat - np.concatenate((gc, gs))
            q = float(v @ weight @ v)
        if not (np.isfinite(q) and 0.0 < sigma2 < np.inf and np.isfinite(a).all()):
            return None
        return q, v, gc, gs, a

    def step(shift):
        # solves (H + shift * scale * I) s = -grad from H / scale, whose
        # eigenvalues lie in [-1, 1], so no product over- or underflows
        det = (lowest + shift) * (highest + shift)
        s0 = (h01 * grad1 - (h11 + shift) * grad0) / det / scale
        s1 = (h01 * grad0 - (h00 + shift) * grad1) / det / scale
        return s0, s1

    u0 = u1 = 0.0
    q, v, gc, gs, a = evaluate(u0, u1)
    damping = 0.0
    converged = False
    fresh = True
    for _ in range(NEWTON_MAXITER):
        if fresh:
            w = weight @ v
            pc = w[:size] * gc + w[size:] * gs
            qs = w[:size] * gs - w[size:] * gc
            jac = np.empty((2 * size, 2))
            jac[:size, 0] = -b * gs
            jac[size:, 0] = b * gc
            jac[:size, 1] = -a * gc
            jac[size:, 1] = -a * gs
            jwj = jac.T @ weight @ jac
            grad0 = 2.0 * float(b @ qs)
            grad1 = 2.0 * float(a @ pc)
            h00 = 2.0 * float(jwj[0, 0] + (b * b) @ pc)
            h01 = 2.0 * float(jwj[0, 1] - (a * b) @ qs)
            h11 = 2.0 * float(jwj[1, 1] - (a * pc) @ (a - 1.0))
            mid = (h00 + h11) / 2.0
            half_gap = math.hypot((h00 - h11) / 2.0, h01)
            scale = abs(mid) + half_gap
            if not 0.0 < scale < math.inf:
                break
            h00, h01, h11 = h00 / scale, h01 / scale, h11 / scale
            lowest = (mid - half_gap) / scale
            highest = (mid + half_gap) / scale
            if lowest > 0.0:
                s0, s1 = step(0.0)
                if -(grad0 * s0 + grad1 * s1) <= 2.0 * NEWTON_RTOL * q:
                    trial = evaluate(u0 + s0, u1 + s1)
                    if trial is not None and trial[0] < q:
                        u0, u1, q = u0 + s0, u1 + s1, trial[0]
                    converged = True
                    break
        if lowest > 0.0:
            s0, s1 = step(damping)
        else:
            s0, s1 = step(max(damping, NEWTON_MIN_DAMPING) - 2.0 * lowest)
        longest = max(abs(s0), abs(s1))
        if longest > NEWTON_MAX_STEP:
            s0, s1 = s0 * (NEWTON_MAX_STEP / longest), s1 * (NEWTON_MAX_STEP / longest)
        trial = evaluate(u0 + s0, u1 + s1)
        fresh = trial is not None and trial[0] < q
        if fresh:
            u0, u1 = u0 + s0, u1 + s1
            q, v, gc, gs, a = trial
            damping /= 10.0
        elif u0 + s0 == u0 and u1 + s1 == u1:
            break
        else:
            damping = max(10.0 * damping, NEWTON_MIN_DAMPING)
    return mu0 + u0 * sd, g0 * np.exp(u1), q, converged


SEARCH_LAWS = (
    InnovationLaw.normal(),
    InnovationLaw.lognormal(),
    InnovationLaw.student_t(3),
    InnovationLaw.chi_squared(2),
    InnovationLaw.beta(7, 1),
)


def search_series(count=400):
    """Series of mixed lengths, laws, AR coefficients and scales; every
    seventh is rounded to a few values, which makes some searches stop
    without converging."""
    out = []
    for i in range(count):
        n = 10 + (37 * i) % 390
        spec = ArmaSpec(ar=(0.6 * ((i % 5) - 2) / 2,), innovation=SEARCH_LAWS[i % 5])
        x = simulate_arma(spec, n, 50, RngStream(i, stream_id=11)).values
        if i % 7 == 3:
            x = np.round(x * 2.0)
        out.append(x * 10.0 ** ((i % 13) - 6) + 100.0 * (i % 3))
    return out


def oracle_epps(x, lam=None):
    prepared = _prepare(x, lam)
    [res] = _results([prepared], [minimize_qn_one_row(*prepared[3])])
    return res


def fields(r):
    return r.statistic, r.p_value, r.theta_hat.mu, r.theta_hat.sigma2, r.df, r.converged


class TestStackedSearch:
    def test_rows_equal_one_row_oracle(self):
        prepared, degenerate = [], 0
        for x in search_series():
            try:
                prepared.append(_prepare(x))
            except NumericDegeneracyError:  # rank <= 2: epps_test raises before searching
                degenerate += 1
        assert degenerate < 40
        found = []
        start = 0
        for size in (1, 2, 5, 32, 64, 100):  # stacks of mixed sizes
            found += _search([p[3] for p in prepared[start : start + size]])
            start += size
        found += _search([p[3] for p in prepared[start:]])
        converged = 0
        for i, (p, f) in enumerate(zip(prepared, found)):
            [expected] = _results([p], [minimize_qn_one_row(*p[3])])
            assert fields(_results([p], [f])[0]) == fields(expected), i
            converged += expected.converged
        # the stack holds rows that stop without converging
        assert 0 < converged < len(prepared)

    def test_epps_test_equals_one_row_oracle(self):
        grids = (None, Lambda((0.5, 1.0, 2.0)), Lambda((0.3, 0.9, 1.7, 2.5)))
        for i, x in enumerate(search_series(200)):
            lam = grids[i % 3]
            try:
                expected = fields(oracle_epps(x, lam))
            except NumericDegeneracyError as exc:
                with pytest.raises(NumericDegeneracyError) as raised:
                    epps_test(x, lam)
                assert str(raised.value) == str(exc)
                continue
            assert fields(epps_test(x, lam)) == expected, i

    def test_rank_two_or_less_raises_before_the_search(self):
        x = np.tile([0.0, 1.0], 100)
        with pytest.raises(NumericDegeneracyError, match="rank 1"):
            _prepare(x)
        with pytest.raises(NumericDegeneracyError, match="rank 1"):
            epps_test(x)

    def test_empty_stack(self):
        assert _search([]) == []


def outcome(f, *args):
    """``f(*args)``'s fields, or the type and message of the error it raises."""
    try:
        return fields(f(*args))
    except NortsError as exc:
        return type(exc), str(exc)


class TestEppsRows:
    def test_mixed_block_equals_epps_test_row_by_row(self):
        # constant, too short and rank <= 2 series among ordinary ones; the
        # ordinary rows search together in one stack
        series = search_series(60)
        series[3] = np.full(50, 2.5)
        series[8] = np.tile([0.0, 1.0], 40)
        series[9] = np.r_[np.zeros(99), 1.0]
        series[20] = series[20][:9]
        for lam in (None, Lambda((0.5, 1.0, 2.0))):
            got = _epps_rows(series, lam)
            assert len(got) == len(series)
            for i, (x, res) in enumerate(zip(series, got)):
                as_outcome = (type(res), str(res)) if isinstance(res, NortsError) else fields(res)
                assert as_outcome == outcome(epps_test, x, lam), i
            assert {type(res) for res in got} == {EppsResult, InvalidInputError, NumericDegeneracyError}

    def test_takes_an_iterator_and_rows_of_a_block(self):
        block = np.stack([simulate_arma(ArmaSpec(ar=(0.3,)), 80, 50, RngStream(i, 12)).values
                          for i in range(5)])
        expected = [fields(epps_test(x)) for x in block]
        assert [fields(r) for r in _epps_rows(block)] == expected
        assert [fields(r) for r in _epps_rows(iter(block))] == expected
        assert _epps_rows([]) == []


def stacked_series(count=400):
    """Series in four lengths, so that each length is one stack of
    ``_prepare_rows``: laws, AR coefficients, offsets and scales mixed, with
    rounded, constant, period-2 (rank 1), non-finite and extreme-scale rows
    among them, and one stack too short for the gate."""
    out = []
    for i in range(count):
        n = (60, 61, 120, 246)[i % 4]
        spec = ArmaSpec(ar=(0.6 * ((i % 5) - 2) / 2,), innovation=SEARCH_LAWS[i % 5])
        x = simulate_arma(spec, n, 50, RngStream(i, stream_id=13)).values
        if i % 7 == 3:
            x = np.round(x * 2.0)
        x = x * 10.0 ** ((i % 13) - 6) + 100.0 * (i % 3)
        if i % 37 == 5:
            x = np.full(n, 2.5)
        if i % 41 == 6:
            x = np.tile([0.0, 1.0], n)[:n]
        if i % 43 == 7:
            x[n // 2] = np.inf
        if i % 47 == 8:  # a half spread past 2**1022: a given grid overflows
            x = (x - (x.max() + x.min()) / 2) / np.ptp(x) * 1.2e308
        if i % 53 == 9:
            x = x / np.abs(x).max() * 1e-300
        out.append(x)
    return out + [np.arange(9.0), np.arange(9.0) ** 2]


class TestStackedPrepare:
    @pytest.mark.parametrize("lam", [None, Lambda((0.5, 1.0, 2.0))])
    def test_rows_equal_epps_test_bit_for_bit(self, lam):
        series = stacked_series()
        got = _epps_rows(series, lam)
        for i, (x, res) in enumerate(zip(series, got)):
            as_outcome = (type(res), str(res)) if isinstance(res, NortsError) else fields(res)
            assert as_outcome == outcome(epps_test, x, lam), i
        errors = {str(res).split(" ")[0] for res in got if isinstance(res, NortsError)}
        assert errors >= {"series", "test", "long-run"}
        dfs = {res.df for res in got if not isinstance(res, NortsError)}
        if lam is not None:
            # rows of every rank from 3 up, inverted one at a time, and grids
            # that the data's scale takes past the double range
            assert dfs == {1, 2, 3, 4}
            assert "frequency" in errors


class TestGridAtExtremeScales:
    def test_huge_data_with_a_given_grid_warns_nothing(self):
        x = simulate_arma(ArmaSpec(ar=(0.4,)), 100, 50, RngStream(81)).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = epps_test(x * 2.0**1015, Lambda((1.0, 2.0)))
        assert np.isfinite(r.statistic) and 0.0 <= r.p_value <= 1.0

    @pytest.mark.parametrize("largest, lam, scale", [
        (1.7e308, (1.0, 2.0), "2**1024"),
        (1e-300, (1e-300, 2e-300), "2**-996"),
    ])
    def test_a_grid_past_the_double_range_names_the_grid_and_the_scale(self, largest, lam, scale):
        x = simulate_arma(ArmaSpec(ar=(0.4,)), 100, 50, RngStream(81)).values
        x = x * (largest / np.abs(x).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError) as raised:
                epps_test(x, Lambda(lam))
        assert str(raised.value) == (
            f"frequency grid {Lambda(lam).points} at the data's scale {scale} leaves the double range"
        )


class TestLockstep:
    @staticmethod
    def counter(name, rounds):
        """Yields (name, i) for i < rounds, collecting the replies it is sent;
        returns (name, replies)."""
        replies = []
        for i in range(rounds):
            replies.append((yield name, i))
        return name, replies

    def test_runs_side_by_side_and_returns_in_order(self):
        seen = []

        def step(ids, asks):
            seen.append((list(ids), list(asks)))
            return [f"{name}{i}" for name, i in asks]

        runs = [self.counter("a", 3), self.counter("b", 1), self.counter("c", 0), self.counter("d", 2)]
        out = _lockstep(runs, step)
        assert out == [("a", ["a0", "a1", "a2"]), ("b", ["b0"]), ("c", []), ("d", ["d0", "d1"])]
        # step sees only the generators still running, in input order
        assert seen == [
            ([0, 1, 3], [("a", 0), ("b", 0), ("d", 0)]),
            ([0, 3], [("a", 1), ("d", 1)]),
            ([0], [("a", 2)]),
        ]

    def test_a_generator_that_stops_at_its_first_reply(self):
        def once():
            reply = yield "ask"
            return reply * 2

        assert _lockstep([once(), once()], lambda ids, asks: [len(ids), 5]) == [4, 10]

    def test_empty(self):
        def step(ids, asks):
            raise AssertionError("step called with no generators")

        assert _lockstep([], step) == []
        assert _lockstep(iter([]), step) == []
