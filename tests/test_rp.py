import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norts import (
    ArmaSpec,
    GarchSpec,
    InnovationLaw,
    InvalidInputError,
    NumericDegeneracyError,
    ProjectionConfig,
    ProjectionVector,
    RngStream,
    ScenarioSpec,
    Series,
    fdr_combine,
    lobato_test,
    project_series,
    rp_test,
    run_scenario,
    simulate_arma,
    simulate_garch,
    stick_breaking_h,
)


def fdr_oracle(pvalues):
    """Exact rational Benjamini-Yekutieli adjusted minimum."""
    k = len(pvalues)
    c = sum(Fraction(1, j) for j in range(1, k + 1))
    best = min(
        Fraction(p).limit_denominator(10**9) * k * c / i
        for i, p in enumerate(sorted(pvalues), start=1)
    )
    return float(min(Fraction(1), best))


class TestStickBreaking:
    def test_degenerate_stick_all_mass_at_lag_zero(self):
        h = stick_breaking_h(5.0, 1e-6, RngStream(7))
        assert len(h) == 1
        assert h.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("pars", [(2.0, 7.0), (100.0, 1.0)])
    def test_unit_norm_always(self, pars):
        master = RngStream(77)
        for i in range(200):
            h = stick_breaking_h(pars[0], pars[1], master.substream(i))
            assert abs(np.sum(h.weights**2) - 1.0) <= 1e-9
            assert np.all(h.weights >= 0)

    def test_concentrated_law_stays_short(self):
        master = RngStream(500)
        lengths, first_masses = [], []
        for i in range(1000):
            h = stick_breaking_h(100.0, 1.0, master.substream(i))
            lengths.append(len(h) - 1)
            first_masses.append(h.weights[0] ** 2)
        # the first stick takes ~0.99 of the mass; a handful of lags suffice
        assert np.median(lengths) <= 4
        assert np.median(first_masses) >= 0.95


class TestProjectionVector:
    def test_rejects_bad_norm(self):
        with pytest.raises(InvalidInputError, match="unit l2 norm"):
            ProjectionVector(np.array([0.5, 0.5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInputError):
            ProjectionVector(np.array([-0.6, 0.8]))


class TestProjectSeries:
    def test_identity_projection(self, s50):
        h = ProjectionVector(np.array([1.0]))
        np.testing.assert_array_equal(project_series(s50, h).values, s50.values)

    def test_two_tap_on_constant(self):
        h = ProjectionVector(np.array([np.sqrt(0.5), np.sqrt(0.5)]))
        out = project_series([3.0] * 20, h)
        assert len(out) == 19
        np.testing.assert_allclose(out.values, 3.0 * np.sqrt(2.0), rtol=1e-12)

    def test_naive_convolution_oracle(self, s20):
        w = np.array([0.6, 0.4, 0.3, np.sqrt(1 - 0.36 - 0.16 - 0.09)])
        h = ProjectionVector(w)
        out = project_series(s20, h)
        n, L = len(s20), len(w) - 1
        assert len(out) == n - L
        for t in range(L, n):
            oracle = sum(w[i] * s20.values[t - i] for i in range(len(w)))
            assert out.values[t - L] == pytest.approx(oracle, abs=1e-12)

    def test_too_short_series_rejected(self):
        h = ProjectionVector(np.ones(5) / np.sqrt(5.0))
        with pytest.raises(InvalidInputError, match="too short"):
            project_series(np.arange(5, dtype=float), h)


class TestFdrCombine:
    def test_single_pvalue_passthrough(self):
        assert fdr_combine([0.5]) == 0.5

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("p", [0.01, 0.2, 0.7])
    def test_identical_pvalues(self, k, p):
        c = sum(1.0 / j for j in range(1, k + 1))
        assert fdr_combine([p] * k) == pytest.approx(min(1.0, c * p), rel=1e-12)

    def test_hand_enumeration(self):
        # min over i of p_(i) * 4 * c(4) / i with c(4) = 25/12
        assert fdr_combine([0.001, 0.9, 0.9, 0.9]) == pytest.approx(0.001 * 4 * 25 / 12, rel=1e-12)

    def test_rational_oracle(self):
        cases = [
            [0.04, 0.2],
            [0.5, 0.01, 0.9],
            [0.05, 0.05, 0.05, 0.9],
            [0.001, 0.01, 0.05, 0.5, 0.9],
        ]
        for case in cases:
            assert fdr_combine(case) == pytest.approx(fdr_oracle(case), rel=1e-12)

    def test_bounds_and_errors(self):
        assert fdr_combine([0.0, 0.5]) == 0.0
        assert fdr_combine([1.0, 1.0]) == 1.0
        with pytest.raises(InvalidInputError):
            fdr_combine([])
        with pytest.raises(InvalidInputError):
            fdr_combine([0.5, 1.5])

    @given(
        ps=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8),
        bump=st.floats(0.0, 1.0),
        idx=st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_pvalue(self, ps, bump, idx):
        base = fdr_combine(ps)
        assert base >= min(ps) - 1e-15
        assert base <= 1.0
        raised = list(ps)
        i = idx % len(ps)
        raised[i] = min(1.0, raised[i] + bump)
        assert fdr_combine(raised) >= base - 1e-12


class TestRpTest:
    def test_deterministic_for_fixed_seed(self, s50):
        x = Series(np.tile(s50.values, 4))  # length 200
        cfg = ProjectionConfig(seed=RngStream(9, 3), k=8)
        a = rp_test(x, cfg)
        b = rp_test(x, cfg)
        assert a == b
        assert len(a.per_projection) == 8

    def test_gaussian_garch_not_rejected(self):
        # normally driven GARCH is a Gaussian-like null case for this test
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = GarchSpec(alpha0=0.0, alpha=(0.2,), beta=(0.3,))
        x = simulate_garch(spec, 300, 500, RngStream(3466))
        r = rp_test(x, ProjectionConfig(seed=RngStream(3466, 1), k=250))
        assert r.k == 250
        assert r.p_value > 0.05

    def test_size_under_null(self):
        # The combined p-value inherits the heavy left tail of the
        # characteristic-function test on long moving-average projections
        # (bandwidth floor(n^(2/5)) under-corrects them), so the size sits
        # slightly above nominal instead of being conservative; 0.060
        # observed at this seed.
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.normal(), n=500, method="rp",
            method_options={"k": 10}, trials=500,
        )
        result = run_scenario(spec, RngStream(5152), workers=4)
        assert result.rate <= 0.08

    def test_lognormal_power(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.lognormal(), n=250, method="rp",
            method_options={"k": 10}, trials=500,
        )
        result = run_scenario(spec, RngStream(5153), workers=4)
        assert result.rate >= 0.99

    def test_projection_preserves_gaussianity(self):
        master = RngStream(5154)
        rejections = 0
        trials = 500
        for j in range(trials):
            stream = master.substream(j)
            s = simulate_arma(ArmaSpec(), 300, 0, stream.substream(0))
            h = stick_breaking_h(2.0, 7.0, stream.substream(1))
            rejections += lobato_test(project_series(s, h)).p_value < 0.05
        assert rejections / trials < 0.08

    def test_error_carries_projection_index(self):
        # any projection of a period-2 series is period-2: its F3 is zero in
        # exact arithmetic, and this draw's first one rounds below zero; the
        # marginal test's error is tagged with the projection that hit it
        cfg = ProjectionConfig(seed=RngStream(3), k=2, pars1=(100.0, 1.0), pars2=(100.0, 1.0))
        with pytest.raises(NumericDegeneracyError, match=r"projection 1: non-positive studentization"):
            rp_test(np.tile([0.0, 1.0], 60), cfg)

    def test_rank_deficient_epps_projection_carries_index(self):
        # any projection of a period-2 series is period-2, hence two-valued:
        # its epps moment covariance has rank 1
        cfg = ProjectionConfig(seed=RngStream(1), k=4, pars1=(100.0, 1.0), pars2=(100.0, 1.0))
        with pytest.raises(NumericDegeneracyError, match=r"projection 2: .*rank 1"):
            rp_test(np.tile([0.0, 1.0], 100), cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            ProjectionConfig(seed=RngStream(1), k=7)
        with pytest.raises(InvalidInputError):
            ProjectionConfig(seed=RngStream(1), k=0)
        with pytest.raises(InvalidInputError):
            ProjectionConfig(seed=RngStream(1), pars1=(0.0, 1.0))
