import numpy as np
import pytest
from scipy import special, stats
from scipy.special import ndtr

from norts import (
    InnovationLaw,
    InvalidInputError,
    RngStream,
    chi2_sf,
    sample,
)
from norts import dist


class TestNormalCdf:
    def test_symmetry_point(self):
        assert ndtr(0.0) == 0.5

    def test_975_quantile(self):
        # verified against numeric integration of the density
        from scipy.integrate import quad

        oracle, _ = quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), -40, 1.959964)
        assert abs(ndtr(1.959964) - 0.975) < 1e-6
        assert abs(ndtr(1.959964) - oracle) < 1e-12

    def test_reflection_identity(self):
        x = np.linspace(-37, 37, 2001)
        np.testing.assert_allclose(ndtr(x) + ndtr(-x), 1.0, atol=1e-14)


class TestChi2Sf:
    def test_at_zero(self):
        assert chi2_sf(0.0, 2) == 1.0

    def test_example_epps_pvalue(self):
        assert abs(chi2_sf(32.614, 2) - 8.278e-08) < 1e-10

    def test_example_lobato_pvalue(self):
        assert abs(chi2_sf(62.294, 2) - 2.972e-14) < 1e-16

    def test_df2_exact_exponential(self):
        x = np.array([0.1, 1.0, 5.0, 20.0])
        np.testing.assert_array_equal(chi2_sf(x, 2), np.exp(-x / 2))

    @pytest.mark.parametrize("df", [1, 2, 3, 10])
    def test_monotone_decreasing(self, df):
        x = np.linspace(0, 50, 500)
        v = chi2_sf(x, df)
        assert np.all(np.diff(v) <= 0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            chi2_sf(-0.1, 2)
        with pytest.raises(InvalidInputError):
            chi2_sf(1.0, 0)


class TestSampler:
    def test_beta_support(self):
        draws = sample(InnovationLaw.beta(2, 7), RngStream(1), size=1000)
        assert np.all((draws > 0) & (draws < 1))

    def test_chisq_mean(self):
        draws = sample(InnovationLaw.chi_squared(10), RngStream(2), size=1_000_000)
        assert abs(draws.mean() - 10.0) < 0.05

    def test_t3_central_mass(self):
        oracle = 2 * stats.t(3).cdf(1.0) - 1.0  # ~0.609
        draws = sample(InnovationLaw.student_t(3), RngStream(3), size=500_000)
        frac = np.mean(np.abs(draws) < 1.0)
        assert abs(frac - oracle) < 0.01
        assert abs(frac - 0.608) < 0.01

    def test_scalar_draw(self):
        v = sample(InnovationLaw.normal(), RngStream(4))
        assert isinstance(v, float)

    @pytest.mark.parametrize(
        "law,dist",
        [
            (InnovationLaw.normal(), stats.norm()),
            (InnovationLaw.lognormal(), stats.lognorm(1.0)),
            (InnovationLaw.student_t(3), stats.t(3)),
            (InnovationLaw.chi_squared(10), stats.chi2(10)),
            (InnovationLaw.beta(7, 1), stats.beta(7, 1)),
            (InnovationLaw.gamma(3, 6), stats.gamma(6, scale=1 / 3)),
        ],
        ids=lambda v: getattr(v, "label", None) or type(v).__name__,
    )
    def test_ks_smoke_every_law(self, law, dist):
        n = 10_000
        draws = sample(law, RngStream(99), size=n)
        ks = stats.kstest(draws, dist.cdf).statistic
        assert ks < 1.628 / np.sqrt(n)  # 1% critical value


class TestInnovationLaw:
    def test_labels_round_trip(self):
        laws = [
            InnovationLaw.normal(),
            InnovationLaw.lognormal(),
            InnovationLaw.student_t(3),
            InnovationLaw.chi_squared(10),
            InnovationLaw.beta(7, 1),
            InnovationLaw.gamma(3, 6),
        ]
        for law in laws:
            assert InnovationLaw.parse(law.label) == law

    def test_table_aliases(self):
        assert InnovationLaw.parse("N") == InnovationLaw.normal()
        assert InnovationLaw.parse("logN") == InnovationLaw.lognormal()
        assert InnovationLaw.parse("t3") == InnovationLaw.student_t(3)
        assert InnovationLaw.parse("chisq10") == InnovationLaw.chi_squared(10)

    def test_invalid_laws(self):
        with pytest.raises(InvalidInputError):
            InnovationLaw("cauchy")
        with pytest.raises(InvalidInputError):
            InnovationLaw.student_t(0)
        with pytest.raises(InvalidInputError):
            InnovationLaw.beta(1, -1)
        with pytest.raises(InvalidInputError):
            InnovationLaw("t", (1.0, 2.0))


def _oracle_points():
    """2105 uniforms where the quantile kernels are hardest: uniform on (0, 1),
    the Philox lattice k 2**-53 at both ends, log-uniform tails down to
    1e-300, the smallest normal float and a band around 1/2."""
    gen = np.random.default_rng(20261019)
    k = np.arange(1, 201) * 2.0**-53
    return np.concatenate([
        gen.random(800),
        k,
        1.0 - k,
        10.0 ** gen.uniform(-300, 0, 500),
        1.0 - 10.0 ** gen.uniform(-16, 0, 200),
        0.5 + gen.uniform(-1e-3, 1e-3, 200),
        [np.finfo(float).tiny, 0.25, 0.5, 0.75, dist._T3_SPLIT],
    ])


def _exact(solve, u):
    """``solve(u, bits)`` at rising precision until two precisions agree."""
    import mpmath as mp

    bits = 80
    while True:
        a, b = solve(u, bits), solve(u, bits + 40)
        if abs(a - b) <= abs(b) * mp.mpf(2) ** -70:
            return b
        bits *= 2


def _ulps(x, exact):
    import mpmath as mp

    with mp.workprec(300):
        spacing = mp.mpf(float(np.spacing(abs(float(exact)))))
        return float(abs(mp.mpf(float(x)) - exact) / spacing)


def _t3_exact(u, bits):
    """The t(3) quantile from F(t) = 1/2 + (theta + sin theta cos theta) / pi,
    theta = arctan(t / sqrt(3)), solved in mpmath."""
    import mpmath as mp

    p = min(u, 1.0 - u)
    with mp.workprec(bits + int(-np.log2(p))):  # phi - sin cos cancels in the tail
        p = mp.mpf(p)
        if p == 0.5:
            return mp.mpf(0)
        tol = mp.mpf(2) ** (-mp.mp.prec + 10)
        if p < 0.25:
            c = mp.pi * p
            phi = mp.findroot(lambda x: x - mp.sin(x) * mp.cos(x) - c, mp.cbrt(1.5 * c), tol=tol * c)
            t = mp.sqrt(3) * mp.cos(phi) / mp.sin(phi)
        else:
            c = mp.pi * (mp.mpf(0.5) - p)
            theta = mp.findroot(lambda x: x + mp.sin(x) * mp.cos(x) - c, c / 2, tol=tol * c)
            t = mp.sqrt(3) * mp.tan(theta)
        return t if u > 0.5 else -t


def _gamma_exact(a):
    """The gamma(a, 1) quantile from mpmath's regularized incomplete gamma."""
    import mpmath as mp

    def solve(u, bits):
        with mp.workprec(bits + int(-np.log2(min(u, 1.0 - u))) // 4):
            lower = u <= 0.5
            target = mp.log(mp.mpf(u) if lower else 1 - mp.mpf(u))

            def f(w):
                y = mp.exp(w)
                lo, hi = (0, y) if lower else (y, mp.inf)
                return mp.log(mp.gammainc(a, lo, hi, regularized=True)) - target

            start = (target + mp.loggamma(a + 1)) / a if lower else mp.log(a - 2 * target)
            return mp.exp(mp.findroot(f, start, tol=mp.mpf(2) ** (-mp.mp.prec + 10)))

    return solve


def _beta_exact(a, b):
    """The beta(a, b) quantile for integer shapes from the binomial sum
    I_x(a, b) = sum_{j>=a} C(n, j) x**j (1-x)**(n-j), n = a + b - 1, or its
    complement above the median, by Newton's method in mpmath."""
    import mpmath as mp

    n = a + b - 1

    def solve(u, bits):
        with mp.workprec(bits):
            lower = u <= 0.5
            target = mp.mpf(u) if lower else 1 - mp.mpf(u)
            terms = range(a, n + 1) if lower else range(a)
            x = mp.mpf(float(dist._beta_int_ppf(a, b, u)))
            for _ in range(100):
                y = 1 - x
                value = mp.fsum(mp.binomial(n, j) * x**j * y ** (n - j) for j in terms)
                density = a * mp.binomial(n, a) * x ** (a - 1) * y ** (b - 1)
                step = (value - target) / density
                x = x - step if lower else x + step
                if abs(step) <= x * mp.mpf(2) ** (-mp.mp.prec + 10):
                    return x
            raise AssertionError(("no convergence", a, b, u))

    return solve


@pytest.mark.parametrize(
    "kernel, scipy_ppf, solve, points",
    [
        (dist._t3_ppf, lambda u: special.stdtrit(3, u), _t3_exact, slice(None)),
        (lambda u: dist._gamma_int_ppf(5, u), lambda u: special.gammaincinv(5, u), _gamma_exact(5), slice(None)),
        (lambda u: dist._gamma_int_ppf(1, u), lambda u: special.gammaincinv(1, u), _gamma_exact(1), slice(None, None, 8)),
        (lambda u: dist._gamma_int_ppf(dist._GAMMA_SERIES_MAX, u),
         lambda u: special.gammaincinv(dist._GAMMA_SERIES_MAX, u),
         _gamma_exact(dist._GAMMA_SERIES_MAX), slice(None, None, 8)),
    ] + [
        (lambda u, a=a, b=b: dist._beta_int_ppf(a, b, u), lambda u, a=a, b=b: special.betaincinv(a, b, u),
         _beta_exact(a, b), points)
        for a, b, points in [(2, 7, slice(None)), (2, 2, slice(None, None, 8)), (5, 3, slice(None, None, 8)),
                             (2, 10, slice(None, None, 8)), (6, 6, slice(None, None, 8))]
    ],
    ids=["t3", "gamma5", "gamma1", "gamma-max", "beta(2,7)", "beta(2,2)", "beta(5,3)", "beta(2,10)",
         "beta(6,6)"],
)
def test_quantile_kernels_against_mpmath(kernel, scipy_ppf, solve, points):
    pytest.importorskip("mpmath")
    u = _oracle_points()[points]
    exact = [_exact(solve, float(v)) for v in u]
    ours = np.array([_ulps(x, e) for x, e in zip(kernel(u), exact)])
    # betaincinv returns nan far in some lower tails
    theirs = np.array([_ulps(x, e) if np.isfinite(x) else np.inf for x, e in zip(scipy_ppf(u), exact)])
    worse = ours > np.maximum(4.0, theirs)
    assert not worse.any(), list(zip(u[worse], ours[worse], theirs[worse]))
    assert np.median(ours) <= 1.0, np.median(ours)


def test_t3_draw_at_the_uniform_floor_is_finite():
    # stdtrit(3, u) is +inf below u ~ 1e-237, the floor RngStream maps 0 to included
    t = dist._quantile(InnovationLaw.student_t(3), np.finfo(float).tiny)
    assert np.isfinite(t) and t < 0.0


@pytest.mark.parametrize(
    "law, around",
    [
        (InnovationLaw.student_t(3), (dist._T3_SPLIT, 0.5, 1.0 - dist._T3_SPLIT)),
        (InnovationLaw.chi_squared(10), (0.5,)),
        (InnovationLaw.gamma(2, 1), (0.5,)),
        (InnovationLaw.beta(2, 7), (0.5,)),
        (InnovationLaw.beta(6, 6), (0.5,)),
    ],
    ids=lambda v: getattr(v, "label", None),
)
def test_kernels_are_monotone_across_their_branches(law, around):
    # steps of 1e-10 move the quantile by far more than its few-ulp error
    u = np.concatenate([v * (1.0 + np.arange(-2000, 2001) * 1e-10) for v in around])
    assert np.all(np.diff(dist._quantile(law, np.sort(u))) > 0.0)


def test_other_parameters_keep_scipy():
    u = RngStream(5).uniform(1000)
    np.testing.assert_array_equal(dist._quantile(InnovationLaw.student_t(5), u), special.stdtrit(5, u))
    np.testing.assert_array_equal(
        dist._quantile(InnovationLaw.chi_squared(3), u), 2.0 * special.gammaincinv(1.5, u)
    )
    shape = dist._GAMMA_SERIES_MAX + 1
    np.testing.assert_array_equal(
        dist._quantile(InnovationLaw.gamma(2, shape), u), special.gammaincinv(shape, u) / 2
    )
    # scipy inverts a = 1 or b = 1 in closed form; n = a + b - 1 past the cap
    for a, b in [(7, 1), (100, 1), (1, 5), (2, dist._BETA_SUM_MAX), (2.5, 7)]:
        np.testing.assert_array_equal(dist._quantile(InnovationLaw.beta(a, b), u), special.betaincinv(a, b, u))


@pytest.mark.parametrize("law", [InnovationLaw.student_t(3), InnovationLaw.chi_squared(10), InnovationLaw.beta(2, 7)])
def test_kernels_keep_the_shape_of_their_input(law):
    u = RngStream(6).uniform(12).reshape(3, 4)
    out = dist._quantile(law, u)
    assert out.shape == (3, 4)
    np.testing.assert_array_equal(out.reshape(-1), dist._quantile(law, u.reshape(-1)))
    assert dist._quantile(law, u[1, 2]).shape == ()
    assert dist._quantile(law, u[1, 2]) == out[1, 2]
    assert isinstance(sample(law, RngStream(6)), float)


def _t_exact(df):
    """The lower-tail t(df) quantile from F(t) = I_x(df/2, 1/2) / 2, x = df
    / (df + t**2), with mpmath's regularized incomplete beta."""
    import mpmath as mp

    def solve(u, bits):
        with mp.workprec(bits):
            a = mp.mpf(df) / 2
            target = mp.log(2 * mp.mpf(u))

            def f(w):
                return mp.log(mp.betainc(a, 0.5, 0, mp.exp(w), regularized=True)) - target

            start = (target + mp.log(a) + mp.log(mp.beta(a, 0.5))) / a
            x = mp.exp(mp.findroot(f, start, tol=mp.mpf(2) ** (-mp.mp.prec + 10)))
            return -mp.sqrt(df * (1 / x - 1))

    return solve


@pytest.mark.parametrize("df", [1.25, 1.5, 1.9, 2.5, 5.0, 10.0, 29.5])
def test_t_far_tail_against_mpmath(df):
    # stdtrit returns +inf (or a value off by a half, or clamps near -1e153
    # below df = 2) far in the lower tail for these df; below dist._T_FAR the
    # quantile inverts the incomplete beta, or below df = 2 takes the tail's
    # leading term
    pytest.importorskip("mpmath")
    gen = np.random.default_rng(int(df * 10))
    u = np.concatenate([[np.finfo(float).tiny, 1e-300, 1e-200], 10.0 ** gen.uniform(-307, -90, 30)])
    t = dist._quantile(InnovationLaw.student_t(df), u)
    ulps = np.array([_ulps(x, _exact(_t_exact(df), float(v))) for x, v in zip(t, u)])
    assert ulps.max() <= 4.0, list(zip(u[ulps > 4.0], ulps[ulps > 4.0]))
    near = u >= dist._T_FAR
    np.testing.assert_array_equal(t[near], special.stdtrit(df, u[near]))


@pytest.mark.parametrize("df", [1.25, 1.5, 1.9])
def test_t_far_tail_below_df_2_joins_stdtrit(df):
    # the tail's leading term takes over from stdtrit one ulp below
    # dist._T_FAR; t moves by less than an ulp there, so the two routes must
    # agree to the few ulp each is off
    u = np.array([np.nextafter(dist._T_FAR, 0.0), dist._T_FAR, 1e-95, 1e-90])
    t = dist._quantile(InnovationLaw.student_t(df), u)
    np.testing.assert_array_equal(t[1:], special.stdtrit(df, u[1:]))
    np.testing.assert_allclose(t[0], t[1], rtol=1e-15)


@pytest.mark.parametrize("df", [1.1, 1.25, 1.5, 1.9, 2.5, 5, 10, 20, 29.5])
def test_t_quantile_monotone_across_the_far_tail_seam(df):
    # both routes are a few ulp off, and each ulp of u below dist._T_FAR
    # moves t by less than that: the far route's values must not step up
    # past stdtrit's at the seam
    u = [dist._T_FAR]
    for _ in range(8):
        u.insert(0, np.nextafter(u[0], 0.0))
    t = dist._quantile(InnovationLaw.student_t(df), np.array(u))
    assert np.all(np.diff(t) >= 0.0), t


def test_beta_far_tail_against_mpmath():
    # betaincinv(2, 7, u) is nan below u ~ 1e-187; beta(2, 7) is rp's default law
    import mpmath as mp

    u = np.array([np.finfo(float).tiny, 1e-300, 1e-250, 1e-200])
    x = dist._quantile(InnovationLaw.beta(2, 7), u)
    for v, got in zip(u, x):
        with mp.workprec(200):
            target = mp.log(mp.mpf(v))
            w = mp.findroot(
                lambda w: mp.log(mp.betainc(2, 7, 0, mp.exp(w), regularized=True)) - target,
                (target + mp.log(2 * mp.beta(2, 7))) / 2,
            )
            assert abs(got / mp.exp(w) - 1) < 1e-13, v


LAW_GRID = (
    [InnovationLaw.normal(), InnovationLaw.lognormal()]
    + [InnovationLaw.student_t(df) for df in (1, 2, 2.5, 3, 4, 5, 10, 30, 100)]
    + [InnovationLaw.chi_squared(df) for df in (1, 3, 10, 101)]
    + [InnovationLaw.beta(a, b) for a, b in ((7, 1), (2, 7), (100, 1), (0.5, 0.5), (5, 1.5), (2, 1000))]
    + [InnovationLaw.gamma(rate, shape) for rate, shape in ((3, 6), (1, 0.5), (2, 50), (1, 51))]
)


@pytest.mark.parametrize("law", LAW_GRID, ids=lambda law: law.label)
def test_quantiles_finite_and_monotone_at_the_extremes(law):
    # tiny is the floor RngStream maps an exact 0 to; laws bounded at 0 may
    # round to an exact 0 there
    u = np.array([np.finfo(float).tiny, 1e-300, 1e-200, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    q = dist._quantile(law, u)
    assert np.isfinite(q).all(), q
    assert np.all(np.diff(q) >= 0.0), q
    np.testing.assert_array_equal([dist._quantile(law, v) for v in u], q)
