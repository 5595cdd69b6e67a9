"""Noise plan: addressing, joint law of increment pairs, coarse coupling.

Bits are checked against an oracle built here from numpy's Philox alone:
the words of (sample, fine step k) are those of a generator keyed by the
plan's seed at counter (k * B + b, 0, sample, PATH_STREAM) for the step's
4-word blocks b = 0..B-1, with B = ceil(2N / 4).
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from tamedspde import (
    NoisePlan,
    SchemeConfig,
    SineBasis,
    conv_dw_covariance,
    conv_variance,
    sweep_ensemble,
)
from tamedspde import noise
from tamedspde.noise import PATH_STREAM, IncrementStream, increment_factors


def counter_words(plan, sample, counter, n_words):
    """The first ``n_words`` raw words of a Philox generator keyed by the
    plan's seed at counter (counter, 0, sample, PATH_STREAM)."""
    bitgen = np.random.Philox(key=plan.philox_key(), counter=np.array(
        [counter, 0, sample, PATH_STREAM], dtype=np.uint64))
    return bitgen.random_raw(n_words)


def step_blocks(n_modes):
    """4-word counter blocks per fine step: 2N words, rounded up."""
    return -(-2 * n_modes // 4)


def box_muller_mix(u_radius, u_angle, sqrt_h, l21, l22):
    """(dW, conv) from the radius and angle uniforms, with the operations
    of the stream's normal map and Cholesky mix."""
    r = np.sqrt(-2.0 * np.log(u_radius))
    angle = u_angle * (2.0 * np.pi)
    z1, z2 = r * np.cos(angle), r * np.sin(angle)
    return z1 * sqrt_h, l22 * z2 + l21 * z1


@functools.lru_cache(maxsize=1 << 14)
def oracle_increments(plan, n_modes, sample, step):
    """(dW, conv), each (n_modes,), of one (sample, fine step) for the sine
    basis of ``n_modes`` modes at h = 2**-fine_level, read from the words
    at counter (step * B, 0, sample, PATH_STREAM): uniform (k + 1/2) 2**-53
    of a word's top 53 bits k; mode j takes words j-1 and N+j-1."""
    blocks = step_blocks(n_modes)
    words = counter_words(plan, sample, step * blocks, 4 * blocks)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    factors = increment_factors(SineBasis(n_modes).eigenvalues,
                                plan.fine_step_size(1.0))
    dw, conv = box_muller_mix(u[:n_modes], u[n_modes:2 * n_modes], *factors)
    dw.flags.writeable = conv.flags.writeable = False
    return dw, conv


def stream_increments(plan, samples, eigenvalues, h, n_steps, modes):
    """(dW, conv) of modes ``modes`` (1-based) over fine steps
    0..n_steps-1, each (samples, n_steps, len(modes)), drawn through
    streams of at most 1024 samples, so the window buffers stay small."""
    cols = np.asarray(modes) - 1
    dw = np.empty((len(samples), n_steps, len(cols)))
    conv = np.empty_like(dw)
    for lo in range(0, len(samples), 1024):
        ids = np.asarray(samples[lo : lo + 1024])
        stream = IncrementStream(plan, ids, eigenvalues, h, n_steps)
        w_dw, w_conv = stream.next_window()
        dw[lo : lo + len(ids)] = w_dw[:, :, cols].transpose(1, 0, 2)
        conv[lo : lo + len(ids)] = w_conv[:, :, cols].transpose(1, 0, 2)
    return dw, conv


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
        # one (sample, mode, step) needs only the two counter blocks that
        # hold its radius and angle words: O(1) access into the path
        plan = NoisePlan(42, 10)
        h = 2.0**-10
        dw, conv = IncrementStream(plan, np.array([7, 5]), basis64.eigenvalues,
                                   h, 32).next_window()
        sqrt_h, l21, l22 = increment_factors(basis64.eigenvalues, h)
        blocks = step_blocks(64)
        for mode, step in [(1, 0), (8, 3), (64, 31)]:
            u = []
            for word in (mode - 1, 64 + mode - 1):
                b, offset = divmod(word, 4)
                w = counter_words(plan, 5, step * blocks + b, 4)[offset:offset + 1]
                u.append(((w >> np.uint64(11)).astype(np.float64) + 0.5)
                         * 2.0**-53)
            pair = box_muller_mix(*u, sqrt_h, l21[mode - 1], l22[mode - 1])
            assert pair[0][0] == dw[step, 1, mode - 1]
            assert pair[1][0] == conv[step, 1, mode - 1]

    def test_deterministic_given_plan(self, basis64):
        a = IncrementStream(NoisePlan(123, 12), np.array([0, 1]),
                            basis64.eigenvalues, 1e-3, 2).next_window()
        b = IncrementStream(NoisePlan(123, 12), np.array([0, 1]),
                            basis64.eigenvalues, 1e-3, 2).next_window()
        assert np.array_equal(a, b)

    def test_distinct_seeds_samples_steps_modes(self, basis64):
        def window(seed):
            return IncrementStream(NoisePlan(seed, 12), np.array([0, 1]),
                                   basis64.eigenvalues, 1e-3, 2).next_window()

        dw, conv = window(123)
        other_dw, other_conv = window(124)
        for arr, other in ((dw, other_dw), (conv, other_conv)):
            base = arr[0, 0, 0]                 # (step, sample, mode)
            assert base != other[0, 0, 0]
            assert base != arr[0, 1, 0]
            assert base != arr[0, 0, 1]
            assert base != arr[1, 0, 0]

    def test_spawn_changes_stream(self, basis64):
        plan = NoisePlan(123, 12)
        child = plan.spawn(0)
        assert child.master_seed != plan.master_seed
        assert child.fine_level == plan.fine_level
        assert plan.spawn(0) == child
        assert plan.spawn(1) != child


class TestJointLaw:
    @pytest.mark.parametrize("lam_mode", [1, 8, 64])
    @pytest.mark.parametrize("h", [2.0**-10, 2.0**-14])
    def test_closed_forms_match_quadrature(self, basis64, lam_mode, h):
        lam = basis64.eigenvalues[lam_mode - 1]
        assert conv_variance(lam, h) == pytest.approx(
            quad_conv_variance(lam, h), rel=1e-12
        )
        assert conv_dw_covariance(lam, h) == pytest.approx(
            quad_conv_covariance(lam, h), rel=1e-12
        )

    def test_spec_scale_variance(self, basis64):
        # j=1, h=2^-10: Var(conv) = (1 - exp(-2 pi^2/1024)) / (2 pi^2)
        val = conv_variance(basis64.eigenvalues[0], 2.0**-10)
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
        dw, conv = stream_increments(plan, range(n), basis64.eigenvalues, h,
                                     1, [1])
        dw, conv = dw[:, 0, 0], conv[:, 0, 0]
        se_var = conv_variance(basis64.eigenvalues[0], h) * np.sqrt(2.0 / (n - 1))
        assert abs(np.var(dw, ddof=1) - h) < 4 * h * np.sqrt(2.0 / (n - 1))
        assert abs(
            np.var(conv, ddof=1) - conv_variance(basis64.eigenvalues[0], h)
        ) < 4 * se_var
        assert abs(np.mean(dw)) < 4 * np.sqrt(h / n)


def coarse_conv(conv, decay, ratio):
    """Coarse convolution increments from fine ones (steps on axis 0), by
    the sweep's recursion: restarted at each coarse step, then
    acc <- e^{-lambda h} acc + conv_k."""
    out = []
    acc = np.empty_like(conv[0])
    for k, inc in enumerate(conv):
        if k % ratio == 0:
            acc.fill(0.0)
        acc *= decay
        acc += inc
        if (k + 1) % ratio == 0:
            out.append(acc.copy())
    return np.array(out)


class TestCoarseAggregation:
    """The damped recursion over the stream's conv windows."""

    def test_ratio_one_is_fine_increment(self, basis64):
        plan = NoisePlan(5, 8)
        h = 2.0**-8
        _, conv = IncrementStream(plan, np.array([2]), basis64.eigenvalues,
                                  h, 32).next_window()
        decay = np.exp(-basis64.eigenvalues * h)
        assert np.array_equal(coarse_conv(conv, decay, 1), conv)

    def test_ratio_two_identity(self, basis64):
        plan = NoisePlan(5, 8)
        h = 2.0**-8
        stream = IncrementStream(plan, np.array([2]), basis64.eigenvalues, h, 16)
        stream.next_window()
        _, conv = stream.next_window()              # fine steps 16..31
        decay = np.exp(-basis64.eigenvalues * h)
        agg = coarse_conv(conv, decay, 2)
        assert agg.shape == (8, 1, 64)
        # coarse step 8 covers fine steps 16 and 17
        assert np.array_equal(agg[0], decay * conv[0] + conv[1])
        assert np.array_equal(conv[0, 0], oracle_increments(plan, 64, 2, 16)[1])

    def test_zero_rate_limit_is_brownian_additivity(self):
        plan = NoisePlan(5, 8)
        h = 2.0**-8
        dw, conv = IncrementStream(plan, np.array([0]), np.array([0.0]),
                                   h, 2).next_window()
        agg = coarse_conv(conv, np.ones(1), 2)
        assert agg[0, 0, 0] == pytest.approx(dw[0, 0, 0] + dw[1, 0, 0],
                                             rel=1e-15)

    def test_aggregate_variance_closed_form(self, basis64):
        plan = NoisePlan(77, 10)
        h = 2.0**-10
        ratio = 4
        lam = basis64.eigenvalues[0]
        n = 20_000
        _, conv = stream_increments(plan, range(n), basis64.eigenvalues, h,
                                    ratio, [1])
        agg = coarse_conv(conv[:, :, 0].T, np.exp(-lam * h), ratio)[0]
        target = conv_variance(lam, ratio * h)
        se = target * np.sqrt(2.0 / (n - 1))
        assert abs(np.var(agg, ddof=1) - target) < 4 * se


def test_plan_validation():
    with pytest.raises(ValueError):
        NoisePlan(1, -1)
    plan = NoisePlan(1, 10)
    assert plan.fine_steps == 1024
    assert plan.fine_step_size(1.0) == 2.0**-10


def test_integral_float_fine_level_stored_as_int(basis16):
    # 3.0 passes the integer check; the sweep's range() needs an int
    plan = NoisePlan(1, 3.0)
    assert type(plan.fine_level) is int and plan == NoisePlan(1, 3)
    cfg = SchemeConfig(epsilon=0.5, horizon=1.0, level=2, basis=basis16)
    [a], [b] = (sweep_ensemble([cfg], p, 2) for p in (plan, NoisePlan(1, 3)))
    assert a[-1].tobytes() == b[-1].tobytes()


class TestIncrementStream:
    """Live generators and window buffers give the counter oracle's bits."""

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
                        ref_dw, ref_conv = oracle_increments(plan, n_modes, s, k)
                        assert np.array_equal(dw[k - w0, c], ref_dw)
                        assert np.array_equal(conv[k - w0, c], ref_conv)

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
        # per 32-sample block per window
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


def test_philox_key_derived_once_per_seed(monkeypatch, basis16):
    made = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    noise._philox_key.cache_clear()
    monkeypatch.setattr(np.random, "SeedSequence", counting)
    plan = NoisePlan(31, 4)
    for samples in ([0, 1], [2]):
        IncrementStream(plan, np.array(samples), basis16.eigenvalues, 2.0**-4,
                        4).next_window()
    assert len(made) == 1
    assert plan.philox_key().tolist() == (
        seed_sequence(31).generate_state(2, np.uint64).tolist())
