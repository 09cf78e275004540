import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from norts import (
    InnovationLaw,
    InvalidInputError,
    RngStream,
    chi2_sf,
    sample,
)


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
