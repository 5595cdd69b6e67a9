"""The step, one-sample and ensemble sweeps, coupling, determinism,
blow-up handling."""

import hashlib
import re
import threading
import tracemalloc

import numpy as np
import pytest

from tamedspde import engine
from tamedspde import (
    ALLEN_CAHN,
    BlowUpError,
    NoisePlan,
    SchemeConfig,
    SchemeKind,
    SineBasis,
    TamingParams,
    default_initial,
    f_tau_eval,
    sweep_ensemble,
)
from tamedspde.noise import IncrementStream
from test_noise import oracle_increments


def tamed_cfg(basis, *, epsilon=0.01, level=6, horizon=1.0, beta=5.0,
              alpha=1.0, theta=0.5, drift=ALLEN_CAHN):
    taming = None
    if drift is not None:
        taming = TamingParams(alpha=alpha, beta=beta, theta=theta)
    return SchemeConfig(
        epsilon=epsilon, horizon=horizon, level=level, basis=basis,
        drift=drift, taming=taming, kind=SchemeKind.TAMED_EXP_EULER,
    )


def reference_cfg(basis, *, epsilon=0.01, level=6, horizon=1.0,
                  drift=ALLEN_CAHN):
    return SchemeConfig(
        epsilon=epsilon, horizon=horizon, level=level, basis=basis,
        drift=drift, kind=SchemeKind.SEMI_IMPLICIT_REFERENCE,
    )


def step(state, cfg, noise):
    """One step of ``cfg`` from a (N,) state: the sweep's own advance on a
    two-row batch, one row kept.  A one-row batch would take BLAS's
    matrix-vector path, whose bits differ from a sweep row's."""
    pre = engine._RunPre(cfg)
    batch = np.tile(state, (2, 1))
    out, phys, fv = (np.empty_like(batch) for _ in range(3))
    pre.advance(batch, np.tile(noise, (2, 1)), out, phys, fv, pre.factor)
    return out[0]


class TestConfigValidation:
    def test_epsilon_range(self, basis16):
        with pytest.raises(ValueError):
            SchemeConfig(epsilon=1.5, horizon=1.0, level=3, basis=basis16)
        with pytest.raises(ValueError):
            SchemeConfig(epsilon=0.0, horizon=1.0, level=3, basis=basis16)

    def test_zero_steps_rejected(self, basis16):
        # every level >= 0 takes at least one step, so the sweep has no
        # zero-step case; a level that is not such an integer is refused
        for level in (-1, -1.0, 2.5):
            with pytest.raises(ValueError, match="level must be an integer"):
                SchemeConfig(epsilon=0.5, horizon=1.0, level=level,
                             basis=basis16, drift=None)

    def test_integral_level_stored_as_int(self, basis16):
        cfg = SchemeConfig(epsilon=0.5, horizon=1.0, level=np.float64(3.0),
                           basis=basis16)
        assert type(cfg.level) is int and type(cfg.n_steps) is int
        assert (cfg.level, cfg.n_steps, cfg.tau) == (3, 8, 0.125)

    @pytest.mark.parametrize("horizon", [1.0, 0.3, 2.0, 7.5, 1e-300, 1e300])
    def test_tau_bits_equal_the_division(self, basis16, horizon):
        for level in range(1024):
            cfg = SchemeConfig(epsilon=0.5, horizon=horizon, level=level,
                               basis=basis16)
            assert cfg.tau.hex() == (horizon / 2**level).hex(), level
            assert NoisePlan(1, level).fine_step_size(horizon).hex() == (
                (horizon / 2**level).hex()), level

    def test_tau_past_level_1023_does_not_overflow(self, basis16):
        # float(2**1024) overflows; tau is 0.0 only past 2**-1074
        for level, tau in ((1024, 2.0**-1024), (1074, 2.0**-1074),
                           (1075, 0.0), (5000, 0.0)):
            cfg = SchemeConfig(epsilon=0.5, horizon=1.0, level=level,
                               basis=basis16)
            assert cfg.tau == tau
            assert NoisePlan(1, level).fine_step_size(1.0) == tau
        with pytest.raises(OverflowError):
            1.0 / 2**1024

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
    def test_horizon_must_be_finite_and_positive(self, basis16, horizon):
        with pytest.raises(ValueError, match="horizon must be finite"):
            SchemeConfig(epsilon=0.5, horizon=horizon, level=3, basis=basis16)

    def test_tamed_drift_needs_taming(self, basis16):
        with pytest.raises(ValueError):
            SchemeConfig(epsilon=0.5, horizon=1.0, level=3, basis=basis16,
                         drift=ALLEN_CAHN)


class TestTamedStep:
    def test_fixed_point_zero(self, basis64):
        cfg = tamed_cfg(basis64)
        out = step(np.zeros(64), cfg, np.zeros(64))
        assert np.all(out == 0)

    def test_single_mode_against_quadrature_oracle(self, basis64):
        # untamed limit: beta so small the taming factor is 1 + O(1e-12);
        # the mode-1 coefficient of f(sin(pi x)) is sqrt(2)/8 because
        # sin^3 = (3 sin - sin(3.))/4, checked by Gauss quadrature
        tau, eps = 0.1, 1.0
        cfg = SchemeConfig(
            epsilon=eps, horizon=tau, level=0, basis=basis64, drift=ALLEN_CAHN,
            taming=TamingParams(alpha=1.0, beta=1e-12, theta=0.5),
        )
        state = default_initial(basis64)
        out = step(state, cfg, np.zeros(64))

        x, w = np.polynomial.legendre.leggauss(120)
        xs = 0.5 * (x + 1)
        proj = lambda j: 0.5 * np.sum(
            w * (np.sin(np.pi * xs) - np.sin(np.pi * xs) ** 3)
            * np.sqrt(2.0) * np.sin(j * np.pi * xs)
        )
        c1 = proj(1)
        assert c1 == pytest.approx(np.sqrt(2.0) / 8.0, rel=1e-12)
        lam = basis64.eigenvalues
        expected1 = np.exp(-lam[0] * tau) * (state[0] + tau * c1)
        expected3 = np.exp(-lam[2] * tau) * (tau * proj(3))
        assert out[0] == pytest.approx(expected1, rel=1e-9)
        assert out[2] == pytest.approx(expected3, rel=1e-9)
        others = np.delete(out, [0, 2])
        assert np.max(np.abs(others)) < 1e-12

    def test_tamed_drift_applied_nodewise(self, basis64, rng):
        cfg = tamed_cfg(basis64, level=4)
        state = rng.standard_normal(64) * 0.2
        out = step(state, cfg, np.zeros(64))
        phys = basis64.to_physical(state)
        # M @ M = (N + 1) I: to_physical over N + 1 maps nodes to modes
        drift = basis64.to_physical(
            f_tau_eval(ALLEN_CAHN, cfg.taming, cfg.tau, phys)) / 65
        expected = ((state + cfg.tau / cfg.epsilon * drift)
                    * basis64.semigroup_factors(cfg.tau))
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)

    def test_bit_identical_across_calls(self, basis64, rng):
        cfg = tamed_cfg(basis64)
        state = rng.standard_normal(64)
        noise = rng.standard_normal(64) * 0.01
        a = step(state, cfg, noise)
        b = step(state.copy(), cfg, noise.copy())
        assert np.array_equal(a, b)


class TestReferenceStep:
    def test_fixed_point_zero(self, basis64):
        cfg = reference_cfg(basis64)
        out = step(np.zeros(64), cfg, np.zeros(64))
        assert np.all(out == 0)

    def test_linear_damping_factor(self, basis64):
        cfg = reference_cfg(basis64, level=14, drift=None)
        state = default_initial(basis64)
        out = step(state, cfg, np.zeros(64))
        factor = out[0] / state[0]
        assert factor == pytest.approx(1.0 / (1.0 + 2.0**-14 * np.pi**2),
                                       rel=1e-14)
        assert factor == pytest.approx(0.999398, abs=5e-7)

    def test_monotone_damping(self, basis64, rng):
        cfg = reference_cfg(basis64, drift=None)
        state = rng.standard_normal(64)
        out = step(state, cfg, np.zeros(64))
        assert np.all(np.abs(out) <= np.abs(state))
        assert np.all(np.abs(out[-8:]) < np.abs(state[-8:]) * 0.05)


class TestRunTrajectory:
    """One path at a time: a one-sample sweep."""

    def test_zero_steps_returns_initial(self, basis64):
        # a zero-step run cannot be built; the initial state is what a
        # run returns at t = 0
        with pytest.raises(ValueError, match="level"):
            SchemeConfig(epsilon=0.01, horizon=2.0**-4, level=-1,
                         basis=basis64, drift=None)
        cfg = SchemeConfig(epsilon=0.01, horizon=2.0**-4, level=0,
                           basis=basis64, drift=None)
        (out,) = sweep_ensemble([cfg], NoisePlan(1, 4), [0],
                                snapshot_steps=[[0]])
        assert np.array_equal(out[0, 0], default_initial(basis64))

    def test_zero_noise_heat_decay(self, basis64):
        # every run is driven by the noise, so the noise-free path is 32
        # single steps with zero increments: the heat semigroup at t = 1
        cfg = tamed_cfg(basis64, level=5, drift=None)
        state = default_initial(basis64)
        for _ in range(cfg.n_steps):
            new = step(state, cfg, np.zeros(64))
            assert np.linalg.norm(new) < np.linalg.norm(state)
            state = new
        expected = default_initial(basis64) * basis64.semigroup_factors(1.0)
        assert np.allclose(state, expected, rtol=1e-12, atol=1e-300)

    def test_snapshots_and_monitor_recomputation(self, basis64):
        cfg = tamed_cfg(basis64, level=4, epsilon=0.5)
        plan = NoisePlan(11, 4)
        (out,) = sweep_ensemble([cfg], plan, [3],
                                snapshot_steps=[range(17)])
        assert len(out) == 17
        recomputed = max(float(np.linalg.norm(row[0])) for row in out)
        ((max_l2, _, _),) = norm_monitors([cfg], plan, [3])
        assert max_l2[0] == pytest.approx(recomputed, rel=1e-12)

    def test_snapshot_off_grid_rejected(self, basis64):
        cfg = tamed_cfg(basis64, level=4, epsilon=0.5)
        assert [cfg.step_at(t) for t in (0.0, 0.25, 1.0)] == [0, 4, 16]
        # 1e308 / tau overflows to inf: clipped, it is off the grid, and
        # NaN clips to -1
        for t in (0.3, -0.0625, 1.0625, 1e308, -1e308, float("nan")):
            with pytest.raises(ValueError, match="not on the step grid"):
                cfg.step_at(t)

    def test_memory_at_2_14_steps(self, basis64):
        # the lone sample sweeps as two rows; the traced peak was 0.6 MB
        cfg = tamed_cfg(basis64, level=14, epsilon=0.5, drift=None)
        plan = NoisePlan(5, 14)
        tracemalloc.start()
        try:
            sweep_ensemble([cfg], plan, [3], snapshot_steps=[[2**13, 2**14]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_sample_id_selects_path(self, basis64):
        cfg = tamed_cfg(basis64, level=4, epsilon=0.5)
        plan = NoisePlan(11, 4)
        a, b, again = (sweep_ensemble([cfg], plan, [sample])[0][-1]
                       for sample in (7, 8, 7))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, again)


class TestSnapshotSteps:
    """``snapshot_steps[i]`` are strictly increasing integers in
    [0, n_steps] of run i; anything else would leave a row unwritten."""

    @pytest.mark.parametrize("steps", [
        [4, 4], [8, 4], [-1, 4], [4, 17], [0.5, 4], [4.0],
    ], ids=["repeated", "decreasing", "negative", "past-the-end",
            "non-integral", "float"])
    def test_bad_steps_name_the_run(self, basis64, steps):
        runs = [tamed_cfg(basis64, level=3, epsilon=0.5),
                tamed_cfg(basis64, level=4, epsilon=0.5)]
        with pytest.raises(ValueError, match=re.escape(
                "run 1: snapshot steps must be strictly increasing "
                "integers in [0, 16]")):
            sweep_ensemble(runs, NoisePlan(3, 4), 2,
                           snapshot_steps=[[8], steps])

    def test_one_list_per_run(self, basis64):
        cfg = tamed_cfg(basis64, level=3, epsilon=0.5)
        with pytest.raises(ValueError):
            sweep_ensemble([cfg, cfg], NoisePlan(3, 3), 2,
                           snapshot_steps=[[8]])

    def test_rows_come_in_the_given_order(self, basis64):
        # rows follow the list; the default is the endpoint alone
        cfg = tamed_cfg(basis64, level=4, epsilon=0.5)
        plan = NoisePlan(3, 6)
        [every] = sweep_ensemble([cfg], plan, 3, snapshot_steps=[range(17)])
        [some] = sweep_ensemble([cfg], plan, 3,
                                snapshot_steps=[np.array([0, 5, 16])])
        [end] = sweep_ensemble([cfg], plan, 3)
        assert every.shape == (17, 3, 64) and some.shape == (3, 3, 64)
        assert some.tobytes() == every[[0, 5, 16]].tobytes()
        assert end.tobytes() == every[16:].tobytes()
        [none] = sweep_ensemble([cfg], plan, 3, snapshot_steps=[[]])
        assert none.shape == (0, 3, 64)


class TestSweep:
    def test_scheme_against_itself_identical(self, basis64):
        cfg = tamed_cfg(basis64, level=5)
        outs = sweep_ensemble([cfg, cfg], NoisePlan(9, 5), 10)
        assert np.array_equal(outs[0][-1], outs[1][-1])

    def test_thread_count_invariance(self, basis64):
        cfg = tamed_cfg(basis64, level=6)
        ref = reference_cfg(basis64, level=8)
        plan = NoisePlan(13, 8)
        a = sweep_ensemble([cfg, ref], plan, 520, threads=1)
        b = sweep_ensemble([cfg, ref], plan, 520, threads=4)
        for x, y in zip(a, b):
            assert np.array_equal(x[-1], y[-1])

    def test_alignment_errors(self, basis64):
        cfg = tamed_cfg(basis64, level=5)
        with pytest.raises(ValueError,
                           match="run level 5 is finer than the plan's fine "
                                 "level 4"):
            sweep_ensemble([cfg], NoisePlan(1, 4), 4)
        other = tamed_cfg(basis64, level=3, horizon=2.0)
        with pytest.raises(ValueError, match="disagree on the horizon"):
            sweep_ensemble([cfg, other], NoisePlan(1, 5), 4)

    def test_horizon_off_the_dyadic_fractions(self, basis64, monkeypatch,
                                              fingerprint):
        # T = 0.3 at level 3 on fine level 6: the endpoint is the one
        # snapshot and each step covers 8 fine steps.  The digest was
        # recorded with the run given as tau = 0.3 / 8 and 8 steps; the
        # reference kind's bytes are the same at the X86_V3 dispatch level
        ratios = []

        class Recording(engine._RunPre):
            def __init__(self, cfg, ratio=1, steps=()):
                super().__init__(cfg, ratio, steps)
                ratios.append(ratio)

        monkeypatch.setattr(engine, "_RunPre", Recording)
        cfg = reference_cfg(basis64, level=3, horizon=0.3, epsilon=0.5)
        [out] = sweep_ensemble([cfg], NoisePlan(7, 6), 5)
        assert out.shape == (1, 5, 64) and ratios == [8]
        assert hashlib.sha256(out[-1].tobytes()).hexdigest() == (
            "6fe70f33f33ac6619e7a6f872be7871091613e215cd72e026e65453d76dafb43"
        ), f"sweep bytes moved on this machine:\n{fingerprint}"

    def test_coupled_coarse_equals_manual_composition(self, basis64):
        # one coarse step of ratio 2 must consume exactly the two fine
        # convolution increments it covers
        cfg = tamed_cfg(basis64, level=3, epsilon=0.5)
        plan = NoisePlan(21, 4)
        outs = sweep_ensemble([cfg], plan, 1)
        h = plan.fine_step_size(1.0)
        _, conv = IncrementStream(plan, np.array([0]), basis64.eigenvalues,
                                  h, 16).next_window()
        decay = np.exp(-basis64.eigenvalues * h)
        state = default_initial(basis64)
        for m in range(8):
            agg = np.zeros(64)
            for k in (2 * m, 2 * m + 1):
                agg = decay * agg + conv[k, 0]
            state = step(state, cfg, agg)
        assert np.allclose(outs[0][-1][0], state, rtol=1e-12,
                           atol=1e-15)

    @pytest.mark.parametrize("samples, bad", [
        ([1.7, 2.2], 1.7), ([0, -1, 2], -1), ([3, 2**63, -1], 2**63),
    ], ids=["non-integral", "negative", "out-of-range"])
    def test_bad_sample_ids_rejected(self, basis64, samples, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"sample id must be an integer in [0, {2**63}), got {bad!r}")):
            sweep_ensemble([tamed_cfg(basis64, level=2)], NoisePlan(1, 2),
                           samples)

    @pytest.mark.parametrize("n, threads, sizes", [
        (300, 1, [44, 256]), (300, 2, [150, 150]), (1000, 2, [232] + [256] * 3),
        (7, 4, [1, 2, 2, 2]), (3, 2, [1, 2]),
    ])
    def test_chunks_sized_by_threads(self, basis64, monkeypatch, n, threads,
                                     sizes):
        # at most 256 samples, one chunk per thread below that, >= 2 rows
        seen = []
        real = engine.noise_mod.IncrementStream

        def recording(plan, ids, *args, **kwargs):
            seen.append(len(ids))
            return real(plan, ids, *args, **kwargs)

        monkeypatch.setattr(engine.noise_mod, "IncrementStream", recording)
        sweep_ensemble([tamed_cfg(basis64, level=1)], NoisePlan(1, 1), n,
                       threads=threads)
        # a one-sample chunk is swept as two copies of its sample
        assert sorted(seen) == sorted(max(2, s) for s in sizes)

    def test_window_length_changes_no_byte(self, basis64, monkeypatch):
        # coarse ratios below, at and above the default 8-step window
        runs = [tamed_cfg(basis64, level=9 - q, epsilon=0.5)
                for q in (0, 2, 3, 4, 6, 8)]
        runs += [reference_cfg(basis64, level=level, epsilon=0.5)
                 for level in (9, 3)]
        steps = at_times(runs, (0.5, 1.0))
        plan = NoisePlan(23, 9)
        default = sweep_ensemble(runs, plan, 13, snapshot_steps=steps)
        default_mons = norm_monitors(runs, plan, 13)
        for window in (4, 16, 64, 256):
            monkeypatch.setattr(engine, "_WINDOW_STEPS", window)
            outs = sweep_ensemble(runs, plan, 13, snapshot_steps=steps)
            for a, b in zip(default, outs):
                assert _output_arrays(a) == _output_arrays(b)
            mons = norm_monitors(runs, plan, 13)
            assert _monitor_bytes(mons) == _monitor_bytes(default_mons)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 1.0 / 3.0, 0.25])
def test_collocation_in_scratch_keeps_bits(basis64, alpha):
    # the taming runs in place in the step's scratch; the oracle is
    # f_tau_eval, which takes a fresh array per operation
    cfg = tamed_cfg(basis64, level=10, alpha=alpha, theta=0.5)
    pre = engine._RunPre(cfg)
    states = np.random.default_rng(3).normal(0.0, 1.0, (200, 64))
    phys, fv, tame = (np.empty_like(states) for _ in range(3))
    got = pre.drift_term(states, phys, fv, tame)
    nodal = states @ pre.transform
    want = f_tau_eval(ALLEN_CAHN, cfg.taming, cfg.tau, nodal) @ pre.transform
    want *= pre.inv_nodes
    assert got is phys
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25, None],
                         ids=["tamed-1", "tamed-1/2", "tamed-1/4", "reference"])
def test_step_allocates_no_arrays(basis64, alpha):
    # the collocation, the taming and the update write only into the
    # step's buffers; one (256, 64) temporary would be 131 kB
    cfg = (reference_cfg(basis64, level=10) if alpha is None
           else tamed_cfg(basis64, level=10, alpha=alpha))
    pre = engine._RunPre(cfg)
    states = np.random.default_rng(3).normal(0.0, 1.0, (256, 64))
    noise, out, phys, fv = (np.zeros_like(states) for _ in range(4))
    factor = np.tile(pre.factor, (256, 1))
    pre.advance(states, noise, out, phys, fv, factor)
    tracemalloc.start()
    try:
        pre.advance(states, noise, out, phys, fv, factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000, f"traced peak {peak} B"


@pytest.mark.parametrize("samples, threads, chunks", [(3, 1, 1), (300, 2, 2)])
def test_every_step_passes_the_hook_points(basis64, monkeypatch, samples,
                                           threads, chunks):
    # the benchmark wraps these two methods on the class and counts their
    # calls as engine.advance and drift.collocation: a step bound where
    # the class attribute is not looked up would go uncounted
    calls = {"advance": 0, "drift_term": 0}
    lock = threading.Lock()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine._RunPre, name,
                            counting(name, getattr(engine._RunPre, name)))
    runs = [tamed_cfg(basis64, level=3, epsilon=0.5),             # ratio 2
            tamed_cfg(basis64, level=4, epsilon=0.5, drift=None),
            reference_cfg(basis64, level=4, epsilon=0.5)]
    sweep_ensemble(runs, NoisePlan(8, 4), samples, threads=threads)
    steps = chunks * sum(r.n_steps for r in runs)
    assert calls == {"advance": steps, "drift_term": steps}


def at_times(runs, times):
    """Each run's snapshot steps at ``times``, on its own grid."""
    return [[r.step_at(t) for t in times] for r in runs]


def _output_arrays(out, rows=slice(None)):
    """The bytes of one run's output, per snapshot row; the last row
    holds its endpoints."""
    return [row[rows].tobytes() for row in out]


def norm_monitors(runs, plan, samples, **kwargs):
    """Each run's running norm monitors, from a sweep with a norm snapshot
    at every step: per run, the (L2, L4, sup) maxima of every sample over
    all steps, t = 0 included."""
    outs = sweep_ensemble(
        runs, plan, samples,
        snapshot_steps=[range(r.n_steps + 1) for r in runs],
        snapshot_fn=runs[0].basis.norms,
        **kwargs)
    monitors = []
    for norms in outs:                          # (steps + 1, S, 3)
        monitors.append((np.sqrt(norms[..., 0]).max(axis=0),
                         (norms[..., 1]**0.25).max(axis=0),
                         norms[..., 2].max(axis=0)))
    return monitors


def _monitor_bytes(monitors, rows=slice(None)):
    return [m[rows].tobytes() for run in monitors for m in run]


class TestSampleBits:
    """A sample id gives the same bits whatever batch, chunk or entry
    point computes it: rows of a 300-sample sweep (chunks of 256 and 44)
    are the reference."""

    TIMES = (0.5, 1.0)

    @staticmethod
    def runs(basis):
        return [tamed_cfg(basis, level=4, epsilon=0.5),
                reference_cfg(basis, level=6, epsilon=0.5)]

    def sweep(self, basis, samples):
        """Per run, the output arrays' bytes and the monitors."""
        runs, plan = self.runs(basis), NoisePlan(41, 6)
        outs = sweep_ensemble(runs, plan, samples,
                              snapshot_steps=at_times(runs, self.TIMES))
        monitors = norm_monitors(runs, plan, samples)
        return outs, monitors

    @staticmethod
    def as_bytes(sweep, rows=slice(None)):
        outs, monitors = sweep
        return ([_output_arrays(out, rows) for out in outs],
                _monitor_bytes(monitors, rows))

    @pytest.fixture(scope="class")
    def full(self, basis64):
        return self.sweep(basis64, 300)

    @pytest.mark.parametrize("sample", [0, 5, 255, 256, 299])
    def test_single_sample_equals_batch_row(self, basis64, full, sample):
        one = self.sweep(basis64, [sample])
        assert self.as_bytes(one) == self.as_bytes(full, [sample])

    @pytest.mark.parametrize("count", [255, 256, 257])
    def test_chunk_edges(self, basis64, full, count):
        # 257 samples end in a one-row chunk
        assert self.as_bytes(self.sweep(basis64, count)) == (
            self.as_bytes(full, slice(0, count)))

    def test_explicit_ids_equal_count(self, basis64, full):
        ids = [299, 0, 5, 256, 255]
        assert self.as_bytes(self.sweep(basis64, ids)) == (
            self.as_bytes(full, ids))


class TestStepHelperBits:
    """The sweep's step, composed by hand with a sample's coarse
    increments, gives the bits of that sample's sweep endpoint.  Ratio 8
    at fine level 6, samples 256-299 of a 300-sample sweep (the second
    chunk)."""

    @staticmethod
    def cfg(basis, kind):
        if kind == "tamed":
            return tamed_cfg(basis, level=3, epsilon=0.5)
        return reference_cfg(basis, level=3, epsilon=0.5)

    @pytest.mark.parametrize("kind", ["tamed", "reference"])
    def test_composed_steps_equal_sweep_rows(self, basis64, kind):
        cfg = self.cfg(basis64, kind)
        plan = NoisePlan(41, 6)
        outs = sweep_ensemble([cfg], plan, 300)
        decay = np.exp(-basis64.eigenvalues * plan.fine_step_size(1.0))
        for sample in range(256, 300):
            dw, conv = zip(*(oracle_increments(plan, 64, sample, k)
                             for k in range(64)))
            state = default_initial(basis64)
            for m in range(8):
                # the sweep's running coarse sum, in its order
                acc = np.zeros(64)
                for k in range(8 * m, 8 * m + 8):
                    if kind == "tamed":
                        acc = acc * decay + conv[k]
                    else:
                        acc = acc + dw[k]
                state = step(state, cfg, acc)
            assert state.tobytes() == outs[0][-1][sample].tobytes(), (
                f"sample {sample}")


def test_monitor_bytes_pinned(basis64, fingerprint):
    # 257 samples end in a one-row chunk; the digest was recorded while
    # the sweep still kept running maxima of its own, before the monitors
    # and the moments shared one norm helper
    runs = [tamed_cfg(basis64, level=4, epsilon=0.5),
            reference_cfg(basis64, level=6, epsilon=0.5)]
    for threads in (1, 2):
        monitors = norm_monitors(runs, NoisePlan(41, 6), 257, threads=threads)
        h = hashlib.sha256()
        for a in _monitor_bytes(monitors):
            h.update(a)
        assert h.hexdigest() == (
            "288d8fcc467ae5c5c47f59252d3cc8bdcb2899e56d1715a94c22974e6747a1dd"
        ), f"monitor bytes moved at threads={threads}:\n{fingerprint}"


class TestSnapshotFn:
    TIMES = (0.0, 0.5, 1.0)

    def test_reduced_snapshots_equal_reduced_states(self, basis64):
        # the callable sees whole chunks, so its rows equal the rows of
        # the same callable applied to the stored states
        cfg = tamed_cfg(basis64, level=4, epsilon=0.5)
        plan = NoisePlan(41, 6)
        reduce = lambda states: states @ basis64._transform[:, :2]
        steps = at_times([cfg], self.TIMES)
        full = sweep_ensemble([cfg], plan, 257, snapshot_steps=steps)
        small = sweep_ensemble([cfg], plan, 257, snapshot_steps=steps,
                               snapshot_fn=reduce)
        assert small[0].shape == (len(self.TIMES), 257, 2)
        for a, b in zip(small[0], full[0]):
            assert a.shape == (257, 2)
            assert a.tobytes() == reduce(b).tobytes()
        # a reduction leaves the path alone: reduced at the horizon, the
        # raw endpoints give the reduced sweep's horizon snapshot
        [raw] = sweep_ensemble([cfg], plan, 257)
        assert small[0][-1].tobytes() == reduce(raw[-1]).tobytes()

    def test_zero_horizon(self, basis64):
        # no zero-horizon sweep exists; the t = 0 snapshot of a one-step
        # run is the callable applied to the initial state
        with pytest.raises(ValueError, match="level"):
            SchemeConfig(epsilon=0.5, horizon=2.0**-4, level=-1,
                         basis=basis64, drift=None)
        cfg = SchemeConfig(epsilon=0.5, horizon=2.0**-4, level=0,
                           basis=basis64, drift=None)
        outs = sweep_ensemble([cfg], NoisePlan(1, 4), 3, snapshot_steps=[[0]],
                              snapshot_fn=lambda s: s[:, :1] * 2.0)
        assert outs[0][0].tolist() == [[2 * default_initial(basis64)[0]]] * 3


def test_sweep_memory_is_window_sized(basis64):
    # 200 samples at fine level 8: four tamed runs of ratio 2..16 plus
    # the reference.  Whole-path noise buffers would be 26 MB each
    runs = [tamed_cfg(basis64, level=level) for level in (7, 6, 5, 4)]
    runs.append(reference_cfg(basis64, level=8))
    tracemalloc.start()
    try:
        sweep_ensemble(runs, NoisePlan(3, 8), 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8-step dW and conv windows are 0.8 MB each at 200 samples; the
    # traced peak was 5.6 MB
    assert peak <= 6e6, f"traced peak {peak / 1e6:.1f} MB"


class TestRunEnsemble:
    """Whole ensembles through ``sweep_ensemble``: the law of an exact OU
    chain (``TestBlowUpOrdering`` has the blow-ups)."""

    def test_ou_stationary_variance_mode1(self, basis64):
        # drift off: each mode is an exact OU chain; mode 1 variance at
        # T = 2 is (1 - exp(-4 pi^2)) / (2 pi^2) ~ 1/(2 pi^2)
        cfg = SchemeConfig(epsilon=1.0, horizon=2.0, level=6, basis=basis64,
                           drift=None)
        plan = NoisePlan(31, 6)
        outs = sweep_ensemble([cfg], plan, 4000)
        var = outs[0][-1][:, 0].var(ddof=1)
        target = (1.0 - np.exp(-4.0 * np.pi**2)) / (2.0 * np.pi**2)
        se = target * np.sqrt(2.0 / 3999)
        assert abs(var - target) < 4 * se


class TestBlowUpOrdering:
    """Runs of ratio 1 and 4 over 128 8-step noise windows; of twelve
    samples, sample 2 blows up in the ratio-4 run at coarse step 169
    (fine step 676, which ends inside the 85th window).  The error pin
    was recorded with the per-fine-step sweep that streamed noise
    replaced; the digest carries the float bytes, so it depends on the
    machine like the golden CSVs.
    """

    TIMES = [0.25, 0.5, 0.75, 1.0]

    @staticmethod
    def runs():
        basis = SineBasis(8)
        out = []
        for level in (10, 8):
            out.append(SchemeConfig(
                epsilon=0.0024, horizon=1.0, level=level, basis=basis,
                drift=ALLEN_CAHN,
                taming=TamingParams(alpha=1.0, beta=1e-6, theta=0.5),
            ))
        return out

    def test_error_names_step_sample_run(self):
        with pytest.raises(BlowUpError) as err:
            sweep_ensemble(self.runs(), NoisePlan(6, 10), 12)
        assert (err.value.step_index, err.value.sample,
                err.value.run_index) == (169, 2, 1)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_blowup_at_any_thread_count(self, threads):
        # 300 samples are chunked 256 + 44, 150 + 150 or 100 x 3; in the
        # first of three chunks, sample 93 blows at a later fine step
        with pytest.raises(BlowUpError) as err:
            sweep_ensemble(self.runs(), NoisePlan(6, 10), 300, threads=threads)
        assert (err.value.step_index, err.value.sample,
                err.value.run_index) == (22, 127, 1)

    def test_survivor_outputs_pinned(self, fingerprint):
        # the eleven samples other than 2, swept by id: each keeps the
        # bits it has in any batch, so the pin of their rows holds
        survivors = [s for s in range(12) if s != 2]
        outs = sweep_ensemble(self.runs(), NoisePlan(6, 10), survivors,
                              snapshot_steps=at_times(self.runs(), self.TIMES))
        monitors = norm_monitors(self.runs(), NoisePlan(6, 10), survivors)
        h = hashlib.sha256()
        for out, mons in zip(outs, monitors):
            # the horizon, 1.0, is hashed first as the endpoints, then in
            # its place among the snapshots
            for a in [out[-1], *out, *mons]:
                h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == (
            "8674624037c3916b7181f29759495a51958d0325cf288bc3401f0c4195a2a862"
        ), f"sweep bytes moved on this machine:\n{fingerprint}"


def _openblas():
    blas = engine._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS in this process: sweeps leave BLAS threads "
                    "alone, so there is no count to check")
    return blas


def test_blas_entry_names_the_kernel():
    # the output bytes depend on the OpenBLAS kernel, so the manifest's
    # blas entry names it whenever it names the library
    entry = engine._blas_threads()
    if entry["library"] is None:
        assert entry["core"] is None
    else:
        assert isinstance(entry["core"], str) and entry["core"]


@pytest.fixture
def blas_two_threads():
    """OpenBLAS set to two threads for the test, restored afterwards."""
    blas = _openblas()
    before = blas.get_threads()
    blas.set_threads(2)
    try:
        if blas.get_threads() != 2:
            pytest.skip("this OpenBLAS does not take two threads")
        yield blas
    finally:
        blas.set_threads(before)


@pytest.fixture
def blas_seen(monkeypatch, blas_two_threads):
    """BLAS thread counts read at every advance, with an optional hook
    run there too."""
    seen, hooks = [], []
    advance = engine._RunPre.advance

    def spy(self, *args):
        seen.append(blas_two_threads.get_threads())
        for hook in hooks:
            hook()
        return advance(self, *args)

    monkeypatch.setattr(engine._RunPre, "advance", spy)
    return blas_two_threads, seen, hooks


class TestThreading:
    """``threads`` is a sweep's only parallelism: it changes no byte, and
    BLAS runs on one thread while any sweep is under way."""

    def test_600_samples_bytes_equal_at_one_and_two_threads(self, basis64):
        runs = [tamed_cfg(basis64, level=4, epsilon=0.5),
                reference_cfg(basis64, level=6, epsilon=0.5)]
        steps = at_times(runs, (0.5, 1.0))
        plan = NoisePlan(17, 6)
        one = sweep_ensemble(runs, plan, 600, threads=1, snapshot_steps=steps)
        two = sweep_ensemble(runs, plan, 600, threads=2, snapshot_steps=steps)
        for a, b in zip(one, two):
            assert _output_arrays(a) == _output_arrays(b)
        assert _monitor_bytes(norm_monitors(runs, plan, 600, threads=1)) == (
            _monitor_bytes(norm_monitors(runs, plan, 600, threads=2)))

    def test_more_workers_than_chunks_changes_no_byte(self, basis64):
        # eight workers: 600 samples are eight chunks of 75, and 13 are
        # seven chunks, fewer than the workers, the last of one row
        cfg = tamed_cfg(basis64, level=5, epsilon=0.5)
        for n in (600, 13):
            one = sweep_ensemble([cfg], NoisePlan(2, 5), n, threads=1)
            eight = sweep_ensemble([cfg], NoisePlan(2, 5), n, threads=8)
            assert one[0][-1].tobytes() == eight[0][-1].tobytes()

    def test_one_thread_inside_restored_after_return(self, basis64, blas_seen):
        blas, seen, _ = blas_seen
        sweep_ensemble([tamed_cfg(basis64, level=3)], NoisePlan(1, 3), 300,
                       threads=2)
        assert seen and set(seen) == {1}
        assert blas.get_threads() == 2

    def test_restored_after_blowup(self, blas_seen):
        blas, seen, _ = blas_seen
        with np.errstate(over="ignore"), pytest.raises(BlowUpError):
            sweep_ensemble(TestBlowUpOrdering.runs(), NoisePlan(6, 10), 12)
        assert seen and set(seen) == {1}
        assert blas.get_threads() == 2

    def test_overlapping_sweeps_restore_when_last_exits(self, basis64,
                                                        blas_seen):
        # sweep A and sweep B both enter; A returns while B is still
        # stepping, and B must still see one thread
        blas, seen, hooks = blas_seen
        both_inside = threading.Barrier(2)
        a_done = threading.Event()
        entered, b_after_a, errors = set(), [], []

        def hook():
            name = threading.current_thread().name
            if name in entered:
                return
            entered.add(name)
            both_inside.wait(timeout=30)
            if name == "B":
                assert a_done.wait(timeout=30)
                b_after_a.append(blas.get_threads())

        def sweep():
            try:
                sweep_ensemble([tamed_cfg(basis64, level=3)], NoisePlan(1, 3), 4)
            except Exception as exc:          # reported in the main thread
                errors.append(exc)
            if threading.current_thread().name == "A":
                a_done.set()

        hooks.append(hook)
        workers = [threading.Thread(target=sweep, name=n) for n in "AB"]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert b_after_a == [1]
        assert set(seen) == {1}
        assert blas.get_threads() == 2
