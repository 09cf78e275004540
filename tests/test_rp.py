import re
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
    NortsError,
    NumericDegeneracyError,
    ProjectionConfig,
    ProjectionVector,
    RngStream,
    RpResult,
    ScenarioSpec,
    Series,
    epps_test,
    fdr_combine,
    lobato_test,
    project_series,
    rp_test,
    run_scenario,
    sample,
    simulate_arma,
    simulate_garch,
    stick_breaking_h,
)
from norts import rp
from norts.rp import _BATCH_CHUNKS, _STICK_CHUNK, STICK_CAP, TRUNCATION_MASS, _half_directions
from norts.series import MIN_TEST_LENGTH, _normalized


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


# Reference copy of rp_test as it was before its draws and its epps searches
# were batched: one direction and one marginal test after another, stopping
# at the first failure.  The batched rp_test must give the same directions,
# the same results and the same error.


def stick_breaking_loop(a, b, rng):
    """One direction, one stick at a time, from 32-uniform chunks of ``rng``."""
    law = InnovationLaw.beta(a, b)
    sticks = []
    total = 0.0
    remaining = 1.0
    while True:
        v = sample(law, rng, size=32)
        for vj in v:
            w = vj * remaining
            sticks.append(w)
            total += w
            remaining *= 1.0 - vj
            if total >= TRUNCATION_MASS:
                weights = np.array(sticks)
                return ProjectionVector(np.sqrt(weights / weights.sum()))
            if len(sticks) > STICK_CAP:
                raise NumericDegeneracyError(
                    f"stick-breaking with beta({a:g},{b:g}) failed to reach mass "
                    f"{TRUNCATION_MASS} within {STICK_CAP} sticks"
                )


def draw_loop(pars, rng, n, index, redraws=None):
    """A direction that leaves MIN_TEST_LENGTH of n points, in at most 100
    draws; appends the number of redraws to ``redraws`` if given."""
    for attempt in range(100):
        h = stick_breaking_loop(pars[0], pars[1], rng)
        if n - (len(h) - 1) >= MIN_TEST_LENGTH:
            if redraws is not None:
                redraws.append(attempt)
            return h
    raise InvalidInputError(
        f"projection {index + 1}: beta{pars} directions keep spanning more than "
        f"the {n} available observations"
    )


def rp_loop(s, cfg):
    s = Series(_normalized(s)[0])
    n = len(s)
    half = cfg.k // 2
    per_projection = []
    for i in range(cfg.k):
        pars = cfg.pars1 if i < half else cfg.pars2
        position = (i % half) + 1
        h = draw_loop(pars, cfg.seed.substream(i), n, i)
        projected = project_series(s, h)
        label, test = ("lobato", lobato_test) if position % 2 == 1 else ("epps", epps_test)
        try:
            res = test(projected)
        except NortsError as exc:
            raise type(exc)(f"projection {i + 1}: {exc}") from exc
        per_projection.append((label, float(res.statistic), float(res.p_value)))

    def average(label):
        stats = [stat for name, stat, _ in per_projection if name == label]
        return float(np.mean(stats)) if stats else float("nan")

    return RpResult(
        k=cfg.k,
        avg_lobato=average("lobato"),
        avg_epps=average("epps"),
        p_value=fdr_combine([p for *_, p in per_projection]),
        per_projection=tuple(per_projection),
    )


def outcome(fn, *args):
    """The result's repr (NaN averages compare equal that way), or the
    error's type and message."""
    try:
        return repr(fn(*args))
    except NortsError as exc:
        return type(exc), str(exc)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBatchedDirections:
    # (pars, n): rows within the batch, rows that redraw (n of 80-90 for
    # pars1), pars2's few sticks, directions of ~400 sticks (past the batch
    # width), a one-stick law and rows that fail after 100 draws
    CONFIGS = [
        ((2.0, 7.0), 250),
        ((2.0, 7.0), 80),
        ((2.0, 7.0), 85),
        ((2.0, 7.0), 90),
        ((100.0, 1.0), 20),
        ((1.0, 20.0), 2000),
        ((1.0, 20.0), 400),
        ((5.0, 1e-6), 12),
        ((2.0, 7.0), 66),
    ]

    def test_equal_loop_bit_for_bit(self):
        directions, redraws, longest = 0, [], 0
        for c, (pars, n) in enumerate(self.CONFIGS):
            for seed in range(12):
                master = RngStream(seed * 7919 + c, stream_id=seed % 3)
                start = 37 * seed
                indices = range(start, start + 16 + seed)
                expected = []
                for i in indices:
                    try:
                        h = draw_loop(pars, master.substream(i), n, i, redraws)
                    except NortsError as exc:
                        expected.append((type(exc), str(exc)))
                        break
                    expected.append(h.weights)
                    longest = max(longest, len(h))
                got = _half_directions(master, indices, pars, n)
                assert len(got) == len(expected), (pars, n, seed)
                for i, want, have in zip(indices, expected, got):
                    if isinstance(want, tuple):
                        assert (type(have), str(have)) == want, (pars, n, seed, i)
                    else:
                        assert same_bits(have, want), (pars, n, seed, i)
                        directions += 1
        assert directions >= 2000
        assert max(redraws) >= 3  # rows that continue their stream past the batch
        assert longest > _BATCH_CHUNKS * _STICK_CHUNK

    def test_pars2_only_config_equals_loop(self):
        cfg = ProjectionConfig(seed=RngStream(12), k=42, pars1=(100.0, 1.0), pars2=(100.0, 1.0))
        x = simulate_arma(ArmaSpec(ar=(0.5,)), 30, 50, RngStream(13))
        assert outcome(rp_test, x, cfg) == outcome(rp_loop, x, cfg)

    @pytest.mark.parametrize("pars", [(2.0, 7.0), (100.0, 1.0), (1.0, 20.0), (5.0, 1e-6), (0.001, 5.0)])
    def test_stick_breaking_h_equals_loop(self, pars):
        for i in range(20):
            a, b = RngStream(91).substream(i), RngStream(91).substream(i)
            assert outcome(lambda: stick_breaking_h(*pars, a).weights.view(np.uint64).tolist()) == outcome(
                lambda: stick_breaking_loop(*pars, b).weights.view(np.uint64).tolist()
            )
            # both consume whole 32-uniform chunks of the stream
            assert a.uniform() == b.uniform()

    def test_stick_cap_error_is_the_loops(self):
        # beta(0.001, 5) sticks are mostly zero: 10000 of them hold too little
        x = simulate_arma(ArmaSpec(), 300, 50, RngStream(14))
        for pars in [((0.001, 5.0), (2.0, 7.0)), ((2.0, 7.0), (0.001, 5.0))]:
            cfg = ProjectionConfig(seed=RngStream(15), k=4, pars1=pars[0], pars2=pars[1])
            expected = outcome(rp_loop, x, cfg)
            assert expected[0] is NumericDegeneracyError
            assert "within 10000 sticks" in expected[1]
            assert outcome(rp_test, x, cfg) == expected

    def test_checks_run_on_every_direction(self, monkeypatch):
        # one input per case, the failing direction between two good ones
        good = np.sqrt(np.full(4, 0.25))
        finite = r"^projection weights must be finite and non-negative$"
        cases = [
            (np.array([-0.6, 0.8]), finite),
            (np.sqrt(np.array([0.5, 0.5 + 0.9e-9])), None),  # within the 1e-9 tolerance
            (np.sqrt(np.array([0.5, 0.5 + 2e-9])), r"^projection weights must have unit l2 norm, got 1\.000000002"),
            (np.array([np.nan]), finite),
        ]
        for weights, message in cases:
            monkeypatch.setattr(rp, "_directions", lambda *args: [good, weights, good])
            got = _half_directions(RngStream(1), range(3), (2.0, 7.0), 250)
            assert same_bits(got[0], good)
            if message is None:
                assert len(got) == 3 and same_bits(got[1], weights) and same_bits(got[2], good)
                continue
            # the list ends at the first direction that fails the check
            assert len(got) == 2 and isinstance(got[1], InvalidInputError)
            assert re.match(message, str(got[1]))
            with pytest.raises(InvalidInputError, match=message):
                rp_test(np.arange(300.0) % 7, ProjectionConfig(seed=RngStream(1), k=6))


class TestEarlyStop:
    # beta(1, 1) sticks are the uniforms themselves.  At n = 12 a direction
    # may span 3 lags: sticks of 0.5 reach the mass at the 30th, so each
    # attempt is redrawn and the 100th fails; sticks of 1e-300 never reach
    # it and fail at STICK_CAP, after 313 chunks; 1 - 1e-12 reaches it at once
    LAW = InnovationLaw.beta(1.0, 1.0)

    def draw(self, values, n=12):
        calls = [0] * len(values)

        def chunks(r, value):
            while True:
                calls[r] += 1
                yield np.full(_STICK_CHUNK, value)

        return rp._directions(self.LAW, [chunks(r, v) for r, v in enumerate(values)], n), calls

    def test_later_directions_draw_nothing_after_a_failure(self):
        got, calls = self.draw([0.5, 1e-300, 1e-300])
        assert got == [None]
        assert calls == [100, 100, 100]

    def test_list_ends_at_the_failure(self):
        got, calls = self.draw([1.0 - 1e-12, 0.5, 1e-300, 1.0 - 1e-12])
        assert len(got) == 2 and same_bits(got[0], np.array([1.0])) and got[1] is None
        assert calls == [1, 100, 100, 1]

    def test_earlier_directions_run_on_past_a_later_failure(self):
        # direction 1's redraws wait for direction 0, which fails: so
        # direction 1 draws nothing past its first attempt
        got, calls = self.draw([1e-300, 0.5])
        assert len(got) == 1 and isinstance(got[0], NumericDegeneracyError)
        assert "within 10000 sticks" in str(got[0])
        assert calls == [313, 1]

    def test_redraws_wait_for_the_earlier_directions(self):
        # every direction spans too many lags: only the first redraws
        got, calls = self.draw([0.5, 0.5, 0.5])
        assert got == [None]
        assert calls == [100, 1, 1]
        # a redraw starts once every earlier direction has its weights
        got, calls = self.draw([1.0 - 1e-12, 0.5, 1.0 - 1e-12, 0.5])
        assert len(got) == 2 and got[1] is None
        assert calls == [1, 100, 1, 1]


class TestErrorOrder:
    def test_draw_failure_after_a_test_failure(self):
        # projection 1's lobato test fails; projection 3's beta(1, 20)
        # directions all span more than the 120 points
        cfg = ProjectionConfig(seed=RngStream(3), k=4, pars1=(100.0, 1.0), pars2=(1.0, 20.0))
        x = np.tile([0.0, 1.0], 60)
        expected = outcome(rp_loop, x, cfg)
        assert expected == (NumericDegeneracyError, "projection 1: non-positive studentization sum "
                            "(F3=-4.996e-16, F4=40.0801)")
        assert outcome(rp_test, x, cfg) == expected

    def test_test_failure_after_a_draw_failure(self):
        cfg = ProjectionConfig(seed=RngStream(3), k=4, pars1=(1.0, 20.0), pars2=(100.0, 1.0))
        x = np.tile([0.0, 1.0], 60)
        expected = outcome(rp_loop, x, cfg)
        assert expected == (InvalidInputError, "projection 1: beta(1.0, 20.0) directions keep "
                            "spanning more than the 120 available observations")
        assert outcome(rp_test, x, cfg) == expected

    def test_rank_deficient_epps_after_a_lobato_failure(self):
        # projection 2 (epps) of a period-2 series has rank 1, but projection
        # 1's lobato test fails first
        cfg = ProjectionConfig(seed=RngStream(3), k=4, pars1=(100.0, 1.0), pars2=(100.0, 1.0))
        x = np.tile([0.0, 1.0], 60)
        expected = outcome(rp_loop, x, cfg)
        assert expected[1].startswith("projection 1: non-positive studentization")
        assert outcome(rp_test, x, cfg) == expected
        cfg = ProjectionConfig(seed=RngStream(4), k=4, pars1=(100.0, 1.0), pars2=(100.0, 1.0))
        expected = outcome(rp_loop, x, cfg)
        assert expected[1].startswith("projection 2: long-run covariance of the 4 moment conditions has rank 1")
        assert outcome(rp_test, x, cfg) == expected

    def test_lowest_failing_projection_wins(self):
        # near rp's minimum length, draws fail at varying projections, and
        # period-2 series fail lobato or epps at others
        seen = set()
        for seed in range(12):
            for n, period, pars1, pars2 in [
                (72, False, (2.0, 7.0), (2.0, 6.0)),
                (74, False, (2.0, 7.0), (2.0, 6.0)),
                (72, False, (100.0, 1.0), (2.0, 7.0)),
                (74, True, (2.0, 7.0), (100.0, 1.0)),
            ]:
                x = np.tile([0.0, 1.0], n // 2)
                if not period:
                    x = x + RngStream(seed, 5).uniform(n)
                cfg = ProjectionConfig(seed=RngStream(seed), k=16, pars1=pars1, pars2=pars2)
                expected = outcome(rp_loop, x, cfg)
                assert outcome(rp_test, x, cfg) == expected, (seed, n, period)
                if isinstance(expected, tuple):
                    seen.add((expected[1].split(":")[0], expected[1].split(":")[1][:5]))
        projections = {where for where, _ in seen}
        assert {"projection 1", "projection 2", "projection 5", "projection 9"} <= projections
        assert {why for _, why in seen} >= {" beta", " non-", " long"}

    @pytest.mark.parametrize("n", [100, 250, 1000])
    def test_results_equal_loop(self, n):
        for seed in range(6):
            law = (InnovationLaw.normal(), InnovationLaw.lognormal(), InnovationLaw.student_t(3))[seed % 3]
            x = simulate_arma(ArmaSpec(ar=(0.4,), innovation=law), n, 50, RngStream(seed, 6))
            cfg = ProjectionConfig(seed=RngStream(seed, 7), k=32)
            assert outcome(rp_test, x, cfg) == outcome(rp_loop, x, cfg)
