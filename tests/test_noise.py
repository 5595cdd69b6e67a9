"""Noise plan: addressing, joint law of increment pairs, coarse coupling."""

import itertools
import tracemalloc

import numpy as np
import pytest

from tamedspde import (
    NoisePlan,
    SineBasis,
    coarse_convolution_increment,
    conv_dw_covariance,
    conv_variance,
    increment_pairs,
    sample_increment_pair,
)
from tamedspde import noise
from tamedspde.noise import (
    IncrementStream,
    increment_factors,
    standard_pairs,
)


def pairs_per_sample(plan, n, n_steps, n_modes):
    """``standard_pairs`` from step 0 of samples 0..n-1, stacked into
    (z1, z2), each (n, n_steps, n_modes)."""
    z1 = np.empty((n, n_steps, n_modes))
    z2 = np.empty((n, n_steps, n_modes))
    for s in range(n):
        z1[s], z2[s] = standard_pairs(plan, s, 0, n_steps, n_modes)
    return z1, z2


def quad_conv_variance(lam, h):
    """Gauss-Legendre oracle for int_0^h exp(-2 lam (h-s)) ds."""
    x, w = np.polynomial.legendre.leggauss(120)
    s = 0.5 * h * (x + 1)
    return 0.5 * h * np.sum(w * np.exp(-2.0 * lam * (h - s)))


def quad_conv_covariance(lam, h):
    """Gauss-Legendre oracle for int_0^h exp(-lam (h-s)) ds."""
    x, w = np.polynomial.legendre.leggauss(120)
    s = 0.5 * h * (x + 1)
    return 0.5 * h * np.sum(w * np.exp(-lam * (h - s)))


class TestAddressing:
    def test_pointwise_equals_batch(self, basis64):
        plan = NoisePlan(42, 10)
        h = 2.0**-10
        dw, conv = increment_pairs(plan, basis64.eigenvalues, h, 5, 0, 32)
        for mode, step in [(1, 0), (8, 3), (64, 31)]:
            pair = sample_increment_pair(
                plan, basis64.eigenvalues, h, 5, mode, step
            )
            assert pair.dW == dw[step, mode - 1]
            assert pair.conv == conv[step, mode - 1]

    def test_deterministic_given_plan(self, basis64):
        a = NoisePlan(123, 12)
        b = NoisePlan(123, 12)
        pa = sample_increment_pair(a, basis64.eigenvalues, 1e-3, 0, 1, 0)
        pb = sample_increment_pair(b, basis64.eigenvalues, 1e-3, 0, 1, 0)
        assert pa == pb

    def test_distinct_seeds_samples_steps_modes(self, basis64):
        plan = NoisePlan(123, 12)
        other = NoisePlan(124, 12)
        base = sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 0, 1, 0)
        assert base != sample_increment_pair(other, basis64.eigenvalues, 1e-3, 0, 1, 0)
        assert base != sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 1, 1, 0)
        assert base != sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 0, 2, 0)
        assert base != sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 0, 1, 1)

    def test_spawn_changes_stream(self, basis64):
        plan = NoisePlan(123, 12)
        child = plan.spawn(0)
        assert child.master_seed != plan.master_seed
        assert child.fine_level == plan.fine_level
        assert plan.spawn(0) == child
        assert plan.spawn(1) != child

    def test_index_validation(self, basis64):
        plan = NoisePlan(1, 4)
        with pytest.raises(IndexError):
            sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 0, 0, 0)
        with pytest.raises(IndexError):
            sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 0, 65, 0)
        with pytest.raises(IndexError):
            sample_increment_pair(plan, basis64.eigenvalues, 1e-3, 0, 1, -1)


class TestJointLaw:
    @pytest.mark.parametrize("lam_mode", [1, 8, 64])
    @pytest.mark.parametrize("h", [2.0**-10, 2.0**-14])
    def test_closed_forms_match_quadrature(self, basis64, lam_mode, h):
        lam = basis64.eigenvalue(lam_mode)
        assert conv_variance(lam, h) == pytest.approx(
            quad_conv_variance(lam, h), rel=1e-12
        )
        assert conv_dw_covariance(lam, h) == pytest.approx(
            quad_conv_covariance(lam, h), rel=1e-12
        )

    def test_spec_scale_variance(self, basis64):
        # j=1, h=2^-10: Var(conv) = (1 - exp(-2 pi^2/1024)) / (2 pi^2)
        val = conv_variance(basis64.eigenvalue(1), 2.0**-10)
        assert val == pytest.approx(quad_conv_variance(np.pi**2, 2.0**-10),
                                    rel=1e-12)
        assert val == pytest.approx(9.6727e-4, rel=1e-4)

    def test_cholesky_reproduces_covariance(self, basis64):
        h = 2.0**-10
        sqrt_h, l21, l22 = increment_factors(basis64.eigenvalues, h)
        var_dw = sqrt_h**2
        var_conv = l21**2 + l22**2
        cov = sqrt_h * l21
        assert np.allclose(var_dw, h, rtol=1e-14)
        assert np.allclose(var_conv, conv_variance(basis64.eigenvalues, h),
                           rtol=1e-12)
        assert np.allclose(cov, conv_dw_covariance(basis64.eigenvalues, h),
                           rtol=1e-12)

    def test_degenerate_fallback(self):
        # lambda h ~ 0: conv degenerates to the plain increment
        h = 2.0**-10
        sqrt_h, l21, l22 = increment_factors(np.array([0.0, 1e-300]), h)
        assert np.all(l22 == 0.0)
        assert np.allclose(l21, sqrt_h, rtol=1e-15)
        assert conv_variance(np.array([0.0]), h)[0] == h
        assert conv_dw_covariance(np.array([0.0]), h)[0] == h

    def test_sample_moments_mode1(self, basis64):
        plan = NoisePlan(2024, 10)
        h = 2.0**-10
        n = 20_000
        z1, z2 = pairs_per_sample(plan, n, 1, 64)
        sqrt_h, l21, l22 = increment_factors(basis64.eigenvalues, h)
        dw = sqrt_h * z1[:, 0, 0]
        conv = l21[0] * z1[:, 0, 0] + l22[0] * z2[:, 0, 0]
        se_var = conv_variance(basis64.eigenvalue(1), h) * np.sqrt(2.0 / (n - 1))
        assert abs(np.var(dw, ddof=1) - h) < 4 * h * np.sqrt(2.0 / (n - 1))
        assert abs(
            np.var(conv, ddof=1) - conv_variance(basis64.eigenvalue(1), h)
        ) < 4 * se_var
        assert abs(np.mean(dw)) < 4 * np.sqrt(h / n)


class TestCoarseAggregation:
    def test_ratio_one_is_fine_increment(self, basis64):
        plan = NoisePlan(5, 8)
        h = 2.0**-8
        pair = sample_increment_pair(plan, basis64.eigenvalues, h, 2, 3, 17)
        agg = coarse_convolution_increment(
            plan, basis64.eigenvalues, h, 2, 3, 17, 1
        )
        assert agg == pair.conv

    def test_ratio_two_identity(self, basis64):
        plan = NoisePlan(5, 8)
        h = 2.0**-8
        lam = basis64.eigenvalue(3)
        _, conv = increment_pairs(plan, basis64.eigenvalues, h, 2, 16, 2)
        expected = np.exp(-lam * h) * conv[0, 2] + conv[1, 2]
        agg = coarse_convolution_increment(
            plan, basis64.eigenvalues, h, 2, 3, 8, 2
        )
        assert agg == expected

    def test_zero_rate_limit_is_brownian_additivity(self):
        plan = NoisePlan(5, 8)
        h = 2.0**-8
        eig = np.array([0.0])
        dw, conv = increment_pairs(plan, eig, h, 0, 0, 2)
        agg = coarse_convolution_increment(plan, eig, h, 0, 1, 0, 2)
        assert agg == pytest.approx(dw[0, 0] + dw[1, 0], rel=1e-15)

    def test_misalignment_rejected(self, basis64):
        plan = NoisePlan(5, 8)
        with pytest.raises(ValueError):
            coarse_convolution_increment(
                plan, basis64.eigenvalues, 2.0**-8, 0, 1, 0, 0
            )
        with pytest.raises(ValueError):
            coarse_convolution_increment(
                plan, basis64.eigenvalues, 2.0**-8, 0, 1, 0, 2.5
            )

    def test_aggregate_variance_closed_form(self, basis64):
        plan = NoisePlan(77, 10)
        h = 2.0**-10
        ratio = 4
        lam = basis64.eigenvalue(1)
        n = 20_000
        z1, z2 = pairs_per_sample(plan, n, ratio, 64)
        sqrt_h, l21, l22 = increment_factors(basis64.eigenvalues, h)
        conv = l21[0] * z1[:, :, 0] + l22[0] * z2[:, :, 0]
        decay = np.exp(-lam * h)
        agg = np.zeros(n)
        for k in range(ratio):
            agg = decay * agg + conv[:, k]
        target = conv_variance(lam, ratio * h)
        se = target * np.sqrt(2.0 / (n - 1))
        assert abs(np.var(agg, ddof=1) - target) < 4 * se


def test_plan_validation():
    with pytest.raises(ValueError):
        NoisePlan(1, -1)
    plan = NoisePlan(1, 10)
    assert plan.fine_steps == 1024
    assert plan.fine_step_size(1.0) == 2.0**-10
    assert plan.mode_word_offsets(1, 64) == (0, 64)


class TestIncrementStream:
    """Live generators and window buffers give the pointwise bits.

    ``increment_pairs`` is per-sample ``standard_pairs`` at one step plus
    the Cholesky mix, with a generator built at that step.
    """

    @pytest.mark.parametrize("n_modes", [5, 64])
    @pytest.mark.parametrize("level", [7, 8, 10])
    def test_windows_equal_per_sample_pairs(self, level, n_modes):
        plan = NoisePlan(99, level)
        h = 2.0**-level
        eig = SineBasis(n_modes).eigenvalues
        checks = [k for k in (0, 3, 4, 15, 16, 63, 64, 65, 255, 256, 257,
                              plan.fine_steps - 1)
                  if k < plan.fine_steps]
        sample_sets = [
            [400, 3, 17, 258],                      # explicit, non-contiguous
            [5, 900, 1, 2, 3, 64, 4, 7, 255, 256, 11, 0, 6],  # one partial block
            [3 * s + 1 for s in range(136)],        # blocks of 32 and 8
        ]
        for window, samples in itertools.product((4, 8, 16, 64, 256),
                                                 sample_sets):
            window = min(window, plan.fine_steps)
            stream = IncrementStream(plan, np.array(samples), eig, h, window)
            for w0 in range(0, plan.fine_steps, window):
                dw, conv = stream.next_window()
                assert dw.shape == conv.shape == (window, len(samples), n_modes)
                for k in (k for k in checks if w0 <= k < w0 + window):
                    # the sweep reads a step as one contiguous slice
                    assert dw[k - w0].flags.c_contiguous
                    assert conv[k - w0].flags.c_contiguous
                    for c, s in enumerate(samples):
                        ref_dw, ref_conv = increment_pairs(plan, eig, h, s, k, 1)
                        assert np.array_equal(dw[k - w0, c], ref_dw[0])
                        assert np.array_equal(conv[k - w0, c], ref_conv[0])

    def test_skipped_buffer_leaves_other_bits(self, basis64):
        plan = NoisePlan(4, 9)
        h = 2.0**-9
        samples = np.array([9, 2])
        both = IncrementStream(plan, samples, basis64.eigenvalues, h, 256)
        conv_only = IncrementStream(plan, samples, basis64.eigenvalues, h, 256,
                                    dw=False)
        dw_only = IncrementStream(plan, samples, basis64.eigenvalues, h, 256,
                                  conv=False)
        for _ in range(2):
            dw, conv = both.next_window()
            no_dw, conv2 = conv_only.next_window()
            dw2, no_conv = dw_only.next_window()
            assert no_dw is None and no_conv is None
            assert np.array_equal(conv, conv2)
            assert np.array_equal(dw, dw2)

    def test_next_window_allocates_no_arrays(self, basis64):
        # uniforms, normals and the mix go into the stream's own buffers;
        # one sample's 16-step words alone would be 16 kB.  numpy's ufunc
        # iterator takes a buffer per strided operand (64 kB each at its
        # default size) and frees it at once, so it is shrunk here
        stream = IncrementStream(NoisePlan(5, 10), np.arange(200),
                                 basis64.eigenvalues, 2.0**-10, 16)
        stream.next_window()
        old = np.setbufsize(16)
        tracemalloc.start()
        try:
            stream.next_window()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert peak < 16_000, f"traced peak {peak} B"


    def test_layers_run_once_per_block_and_window(self, basis64, monkeypatch):
        # the Philox fill and Box-Muller are named layers: one call of each
        # per 32-sample block per window, and one per pointwise request
        calls = {"_draw_uniforms": 0, "_box_muller_into": 0}
        for name in calls:
            def counting(*args, _real=getattr(noise, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(noise, name, counting)
        stream = IncrementStream(NoisePlan(5, 6), np.arange(70),
                                 basis64.eigenvalues, 2.0**-6, 8)
        for _ in range(3):
            stream.next_window()            # blocks of 32, 32 and 6
        assert calls == {"_draw_uniforms": 9, "_box_muller_into": 9}
        standard_pairs(NoisePlan(5, 6), 3, 0, 8, 64)
        assert calls == {"_draw_uniforms": 10, "_box_muller_into": 10}


class TestUniformMap:
    """The stream's uniforms are numpy's Philox doubles plus 2**-54, which
    is the map (k + 0.5) * 2**-53 of a word's top 53 bits k."""

    def test_edge_words(self):
        words = np.array([0, 2**11 - 1, 2**52 << 11, (2**52 + 1) << 11,
                          2**63, 2**64 - 1], dtype=np.uint64)
        k = (words >> np.uint64(11)).astype(np.float64)
        fast = k * 2.0**-53 + noise._HALF_ULP
        exact = (k + 0.5) * 2.0**-53
        assert fast.tobytes() == exact.tobytes()
        # never 0, so the log is finite; the top word rounds to even, 1.0
        assert np.all(fast > 0.0) and fast.max() == fast[-1] == 1.0

    def test_philox_doubles_are_top_53_bits(self):
        key = NoisePlan(8, 4).philox_key()
        counter = np.array([6, 0, 3, 0], dtype=np.uint64)
        words = np.random.Philox(key=key, counter=counter).random_raw(1001)
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        doubles = np.concatenate([gen.random(1000), gen.random(1)])
        want = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert doubles.tobytes() == want.tobytes()


def test_philox_key_derived_once_per_seed(monkeypatch):
    made = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    noise._philox_key.cache_clear()
    monkeypatch.setattr(np.random, "SeedSequence", counting)
    plan = NoisePlan(31, 4)
    standard_pairs(plan, 0, 0, 1, 8)
    standard_pairs(plan, 1, 3, 2, 8)
    assert len(made) == 1
    assert plan.philox_key().tolist() == (
        seed_sequence(31).generate_state(2, np.uint64).tolist())
