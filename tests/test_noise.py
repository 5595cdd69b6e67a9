"""Noise plan: addressing, joint law of increment pairs, coarse coupling."""

import itertools

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
        checks = [k for k in (0, 15, 16, 63, 64, 65, 255, 256, 257,
                              plan.fine_steps - 1)
                  if k < plan.fine_steps]
        sample_sets = [
            [400, 3, 17, 258],                      # explicit, non-contiguous
            [5, 900, 1, 2, 3, 64, 4, 7, 255, 256, 11, 0, 6],  # one partial block
            [3 * s + 1 for s in range(40)],         # blocks of 32 and 8
        ]
        for window, samples in itertools.product((16, 64, 256), sample_sets):
            window = min(window, plan.fine_steps)
            stream = IncrementStream(plan, np.array(samples), eig, h, window)
            for w0 in range(0, plan.fine_steps, window):
                dw, conv = stream.next_window()
                assert dw.shape == conv.shape == (window, len(samples), n_modes)
                for k in (k for k in checks if w0 <= k < w0 + window):
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
        for _ in range(2):
            _, conv = both.next_window()
            dw, conv2 = conv_only.next_window()
            assert dw is None
            assert np.array_equal(conv, conv2)
