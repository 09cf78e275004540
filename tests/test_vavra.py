import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.special import log_ndtr, ndtr, ndtri

import norts.rng as rng_module
import norts.vavra as vavra_module

from norts import (
    ArmaSpec,
    InnovationLaw,
    InvalidInputError,
    RngStream,
    ScenarioSpec,
    Series,
    SieveConfig,
    anderson_darling,
    fit_ar_sieve,
    normal_ppf,
    run_scenario,
    simulate_arma,
    vavra_test,
)
from norts.series import _normalized
from norts.vavra import default_max_order


def ad_quadrature(x):
    """Numeric integration of the weighted CDF-distance, times sample size.

    The classic statistic multiplies the integral by n (the closed form and
    its typical magnitudes only make sense on that scale).  Standardized
    samples of length <= 30 lie well inside [-9, 9], where the weight
    function cannot underflow; the tail remainder is far below the
    comparison tolerance.
    """
    x = np.asarray(x, dtype=float)
    mu = x.mean()
    sd = np.sqrt(np.mean((x - mu) ** 2))
    zs = np.sort((x - mu) / sd)

    def integrand(t):
        cdf = ndtr(t)
        sf = ndtr(-t)  # exact complement, no 1 - cdf cancellation
        fn = np.searchsorted(zs, t, side="right") / zs.size
        dens = np.exp(-t * t / 2) / np.sqrt(2 * np.pi)
        mismatch = (fn - cdf) if t <= 0 else ((fn - 1.0) + sf)
        return mismatch**2 / (cdf * sf) * dens

    pieces = np.concatenate(([-9.0], zs, [9.0]))
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        if b > a:
            v, _ = quad(integrand, a, b, limit=200)
            total += v
    return x.size * total


class TestAndersonDarling:
    def test_quantile_grid_is_small(self):
        z = normal_ppf((np.arange(1, 101) - 0.5) / 100)
        v = anderson_darling(z)
        assert v == pytest.approx(0.01260333091086352, abs=1e-6)
        assert v < 0.05

    def test_affine_invariance(self, s50):
        base = anderson_darling(s50)
        for a, b in [(2.0, 1.0), (-3.5, 0.2), (0.01, -7.0)]:
            assert anderson_darling(Series(a * s50.values + b)) == pytest.approx(base, abs=1e-10)

    def test_quadrature_oracle_on_fixture(self, s20):
        assert anderson_darling(s20) == pytest.approx(ad_quadrature(s20.values), abs=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(InvalidInputError, match="zero variance"):
            anderson_darling([1.0] * 15)

    def test_ties_allowed(self):
        x = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.isfinite(anderson_darling(x))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=10, max_size=30))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_quadrature_property(values):
    x = np.array(values)
    if np.sqrt(np.mean((x - x.mean()) ** 2)) < 1e-6:
        return
    assert anderson_darling(x) == pytest.approx(ad_quadrature(x), abs=1e-6)


def ad_rows_two_log_ndtr(x):
    """The earlier vavra._ad_rows, kept as a reference: log F(z) and log
    F(-z) from two log_ndtr passes over the sorted, standardized rows."""
    n = x.shape[1]
    z = x - x.mean(axis=1, keepdims=True)
    terms = np.square(z)
    g0 = terms.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= np.sqrt(g0)
        z.sort(axis=1)
        log_ndtr(z, out=terms)
        log_ndtr(np.negative(z, out=z), out=z)
        terms += z[:, ::-1]
        terms *= 2.0 * np.arange(1, n + 1) - 1.0
        out = -n - terms.sum(axis=1) / n
    out[~np.isfinite(out)] = np.nan
    out[(g0 <= 0).ravel()] = np.nan
    return out


def ad_mpmath(x):
    """The closed form of A**2 in 40-digit arithmetic, from the float data."""
    import mpmath as mp

    with mp.workdps(40):
        v = [mp.mpf(float(e)) for e in x]
        n = len(v)
        mu = mp.fsum(v) / n
        sd = mp.sqrt(mp.fsum((e - mu) ** 2 for e in v) / n)
        z = sorted((e - mu) / sd for e in v)
        total = mp.fsum(
            (2 * i - 1) * (mp.log(mp.ncdf(z[i - 1])) + mp.log(mp.ncdf(-z[n - i])))
            for i in range(1, n + 1)
        )
        return -n - total / n


def _oracle_rows():
    rows = {
        f"normal-{n}": simulate_arma(ArmaSpec(ar=(0.3,)), n, 100, RngStream(60, n)).values
        for n in (50, 200, 1000)
    }
    rows["t3-500"] = simulate_arma(ArmaSpec(innovation=InnovationLaw.student_t(3)), 500, 0, RngStream(61)).values
    rows["ties-300"] = np.round(simulate_arma(ArmaSpec(), 300, 0, RngStream(62)).values, 1)
    outlier = simulate_arma(ArmaSpec(), 1600, 0, RngStream(63)).values.copy()
    outlier[700] = 1e6  # standardized to |z| ~ 39.99, where ndtr underflows to 0
    rows["outlier-1600"] = outlier
    return rows


@pytest.mark.parametrize("name", sorted(_oracle_rows()))
def test_ad_rows_against_mpmath(name):
    pytest.importorskip("mpmath")
    x = _oracle_rows()[name]
    exact = float(ad_mpmath(x))
    assert vavra_module._ad_rows(x[None, :])[0] == pytest.approx(exact, rel=1e-11)
    if name.startswith("outlier"):
        z = (x - x.mean()) / x.std()
        assert z.max() > 38.0 and ndtr(-z.max()) < np.finfo(float).tiny  # the log_ndtr branch


def test_ad_rows_chunk_size_does_not_change_a_bit(monkeypatch):
    gen = np.random.default_rng(64)
    blocks = [np.vstack([gen.standard_normal((20, 150)), gen.standard_t(3, (19, 150)), np.ones((1, 150))])]
    far = gen.standard_normal((9, 1600))
    far[4, 3] = 1e6  # the log_ndtr branch, next to a degenerate row
    far[5] = 2.0
    blocks.append(far)
    for x in blocks:
        whole = vavra_module._ad_rows(x)
        assert np.isnan(whole).sum() == 1
        for rows in (1, 7):
            monkeypatch.setattr(vavra_module, "_AD_CHUNK", rows * x.shape[1])
            np.testing.assert_array_equal(vavra_module._ad_rows(x), whole)
        monkeypatch.undo()


def test_pvalues_equal_the_two_log_ndtr_kernel(monkeypatch):
    # A changes in its last bits; on 200 seeded AR series no bootstrap
    # statistic lies that close to the observed one, so no p-value moves
    new_kernel = vavra_module._ad_rows
    laws = (InnovationLaw.normal(), InnovationLaw.student_t(5))
    for i in range(200):
        spec = ArmaSpec(ar=(0.3 * (i % 3),), innovation=laws[i % 2])
        s = simulate_arma(spec, 60 + 13 * (i % 19), 100, RngStream(i, stream_id=65))
        cfg = SieveConfig(seed=RngStream(i, stream_id=66), replications=199)
        monkeypatch.setattr(vavra_module, "_ad_rows", ad_rows_two_log_ndtr)
        old = vavra_test(s, cfg)
        monkeypatch.setattr(vavra_module, "_ad_rows", new_kernel)
        new = vavra_test(s, cfg)
        assert new.p_value == old.p_value, i
        assert new.ad_observed == pytest.approx(old.ad_observed, rel=1e-11)


class TestFitArSieve:
    def test_white_noise_prefers_order_zero(self):
        # AIC keeps a known overfitting probability (~0.25-0.3 asymptotically),
        # so the order-0 rate sits around 0.75 rather than higher
        master = RngStream(606)
        hits = 0
        for j in range(200):
            s = simulate_arma(ArmaSpec(), 100, 0, master.substream(j))
            order, _, _ = fit_ar_sieve(s, 20)
            hits += order == 0
        assert hits / 200 >= 0.70

    def test_yule_walker_consistency(self):
        s = simulate_arma(ArmaSpec(ar=(0.4,)), 1000, 500, RngStream(607))
        order, phi, _ = fit_ar_sieve(s, 30)
        assert order >= 1
        assert phi[0] == pytest.approx(0.4, abs=0.1)

    def test_residuals_centered_exactly(self, s50):
        _, _, resid = fit_ar_sieve(s50, 10)
        assert abs(resid.mean()) < 1e-15 * max(1.0, np.max(np.abs(resid)))

    def test_residual_count_matches_order(self):
        s = simulate_arma(ArmaSpec(ar=(0.6,)), 400, 200, RngStream(608))
        order, phi, resid = fit_ar_sieve(s, 12)
        assert resid.size == len(s) - order
        assert phi.size == order

    def test_precondition_on_length(self, s20):
        with pytest.raises(InvalidInputError, match="twice max_order"):
            fit_ar_sieve(s20, 10)

    def test_zero_variance_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_ar_sieve([2.0] * 50, 5)


class TestVavraTest:
    def test_gaussian_arma_not_rejected(self):
        s = simulate_arma(ArmaSpec(ar=(0.2,), ma=(0.34,)), 250, 500, RngStream(300))
        r = vavra_test(s, SieveConfig(seed=RngStream(301)))
        assert r.replications_used == 1000
        assert r.p_value > 0.05

    def test_deterministic_for_fixed_seed(self):
        s = simulate_arma(ArmaSpec(ar=(0.3,)), 120, 100, RngStream(44))
        cfg = SieveConfig(seed=RngStream(45), replications=200)
        assert vavra_test(s, cfg) == vavra_test(s, cfg)

    def test_pvalue_respects_add_one_floor(self):
        # grossly non-normal input: every bootstrap statistic falls below
        # the observed one, so p equals the 1/(R+1) floor
        x = np.exp(simulate_arma(ArmaSpec(), 200, 0, RngStream(46)).values * 2.0)
        r = vavra_test(Series(x), SieveConfig(seed=RngStream(47), replications=199))
        assert r.p_value == pytest.approx(1.0 / 200.0)
        assert 0.0 < r.p_value <= 1.0

    def test_observed_statistic_matches_direct_evaluation(self):
        s = simulate_arma(ArmaSpec(ar=(0.5,)), 150, 100, RngStream(48))
        r = vavra_test(s, SieveConfig(seed=RngStream(49), replications=150))
        assert r.ad_observed == pytest.approx(anderson_darling(s), rel=1e-12)
        assert np.isfinite(r.ad_bootstrap_mean)
        assert r.ar_order >= 0

    def test_residual_bootstrap_variant(self):
        s = simulate_arma(ArmaSpec(ar=(0.3,)), 150, 100, RngStream(50))
        cfg = SieveConfig(seed=RngStream(51), replications=200, bootstrap="residuals")
        r = vavra_test(s, cfg)
        assert r == vavra_test(s, cfg)
        assert 0.0 < r.p_value <= 1.0

    def test_lognormal_power(self):
        spec = ScenarioSpec(
            phi=0.0, law=InnovationLaw.lognormal(), n=100, method="vavra",
            method_options={"replications": 300}, trials=200,
        )
        result = run_scenario(spec, RngStream(5155), workers=4)
        assert result.rate >= 0.99

    def test_low_replication_warning(self):
        with pytest.warns(UserWarning, match="replications") as record:
            SieveConfig(seed=RngStream(1), replications=50)
        assert record[0].filename == __file__  # the line that built the config

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SieveConfig(seed=RngStream(1), replications=0)
        with pytest.raises(InvalidInputError):
            SieveConfig(seed=RngStream(1), bootstrap="jackknife")

    @pytest.mark.parametrize("bootstrap", ["normal", "residuals"])
    def test_degenerate_replicate_redraws_from_its_substream(self, monkeypatch, bootstrap):
        # Replicate r is forced degenerate on the batch call; its redraw must
        # use uniforms total_len .. 2*total_len - 1 of sub-stream r.
        s = simulate_arma(ArmaSpec(ar=(0.4,)), 120, 100, RngStream(52))
        n, r, reps = len(s), 7, 150
        cfg = SieveConfig(seed=RngStream(53), replications=reps, bootstrap=bootstrap)
        real_ad_rows = vavra_module._ad_rows
        batch_calls, redraws = [], []

        def forced(x):
            out = real_ad_rows(x)
            if x.shape[0] == reps:
                batch_calls.append(x)
                out[r] = np.nan
            elif batch_calls:  # before the batch, anderson_darling scores the data
                redraws.append(x[0].copy())
            return out

        monkeypatch.setattr(vavra_module, "_ad_rows", forced)
        result = vavra_test(s, cfg)
        assert result.replications_used == reps
        assert len(redraws) == 1

        # the bootstrap runs on the series scaled to unit spread
        _, phi, resid = fit_ar_sieve(_normalized(s)[0], default_max_order(n))
        total_len = 100 + n
        u = cfg.seed.substream(r).uniform(2 * total_len)[total_len:]
        if bootstrap == "normal":
            innov = float(np.sqrt(np.mean(resid**2))) * ndtri(u)
        else:
            innov = resid[np.minimum((u * resid.size).astype(np.int64), resid.size - 1)]
        expected = lfilter([1.0], np.r_[1.0, -phi], innov)[100:]
        np.testing.assert_array_equal(redraws[0], expected)

    @pytest.mark.parametrize("bootstrap", ["normal", "residuals"])
    def test_row_blocks_equal_one_block(self, monkeypatch, bootstrap):
        # replicates drawn, filtered and scored a few rows at a time give
        # the statistics of a single block, bit for bit
        s = simulate_arma(ArmaSpec(ar=(0.4,)), 120, 100, RngStream(56))
        cfg = SieveConfig(seed=RngStream(57), replications=150, bootstrap=bootstrap)
        whole = vavra_test(s, cfg)
        for rows in (1, 7):
            monkeypatch.setattr(rng_module, "_BLOCK_ELEMENTS", rows * (100 + len(s)))
            assert vavra_test(s, cfg) == whole

    def test_no_per_replicate_generators(self, monkeypatch):
        # The bootstrap draws all replicates in one batch; building a
        # generator per replicate would show up here as 1000 calls.
        s = simulate_arma(ArmaSpec(ar=(0.5,)), 300, 100, RngStream(54))
        calls = []
        real_generator = RngStream._generator

        def counting(self):
            calls.append(self.path)
            return real_generator(self)

        monkeypatch.setattr(RngStream, "_generator", counting)
        result = vavra_test(s, SieveConfig(seed=RngStream(55), replications=1000))
        assert result.replications_used == 1000
        assert calls == []

        # nor do redraws: replicates forced degenerate are redrawn in batches
        real_ad_rows = vavra_module._ad_rows
        redrawn = []

        def forced(x):
            out = real_ad_rows(x)
            if x.shape[0] == 1000:
                out[::100] = np.nan
            elif x.shape[0] > 1:  # anderson_darling scores the data as one row
                redrawn.append(x.shape[0])
            return out

        monkeypatch.setattr(vavra_module, "_ad_rows", forced)
        result = vavra_test(s, SieveConfig(seed=RngStream(55), replications=1000))
        assert result.replications_used == 1000
        assert redrawn == [10]
        assert calls == []

    @pytest.mark.parametrize("bootstrap", ["normal", "residuals"])
    def test_second_redraw_continues_the_substream(self, monkeypatch, bootstrap):
        # Replicate r is forced degenerate on the batch and on its first
        # redraw; its second redraw must use uniforms 2L .. 3L - 1 of
        # sub-stream r, L = total_len, while replicate q, degenerate only on
        # the batch, is redrawn once, from uniforms L .. 2L - 1.
        s = simulate_arma(ArmaSpec(ar=(0.4,)), 120, 100, RngStream(58))
        n, r, q, reps = len(s), 11, 4, 150
        cfg = SieveConfig(seed=RngStream(59), replications=reps, bootstrap=bootstrap)
        real_ad_rows = vavra_module._ad_rows
        calls = []

        def forced(x):
            out = real_ad_rows(x)
            calls.append(x.copy())
            if len(calls) == 2:  # the batch, after anderson_darling scores the data
                out[[q, r]] = np.nan
            elif len(calls) == 3:  # the first redraw: rows q and r
                out[1] = np.nan
            return out

        monkeypatch.setattr(vavra_module, "_ad_rows", forced)
        assert vavra_test(s, cfg).replications_used == reps
        assert [c.shape[0] for c in calls] == [1, reps, 2, 1]

        _, phi, resid = fit_ar_sieve(_normalized(s)[0], default_max_order(n))
        total_len = 100 + n

        def path(replicate, draw):
            u = cfg.seed.substream(replicate).uniform((draw + 1) * total_len)[draw * total_len :]
            if bootstrap == "normal":
                innov = float(np.sqrt(np.mean(resid**2))) * ndtri(u)
            else:
                innov = resid[np.minimum((u * resid.size).astype(np.int64), resid.size - 1)]
            return lfilter([1.0], np.r_[1.0, -phi], innov)[100:]

        np.testing.assert_array_equal(calls[2], [path(q, 1), path(r, 1)])
        np.testing.assert_array_equal(calls[3], [path(r, 2)])
