"""Step test function, weak errors, rate fits, moments, property suite."""

import tracemalloc

import numpy as np
import pytest

from tamedspde import (
    ALLEN_CAHN,
    ErrorRow,
    ErrorTable,
    NoisePlan,
    SchemeConfig,
    SchemeKind,
    StepTestFunction,
    TamingParams,
    default_initial,
    fit_convergence_rate,
    interface_profile,
    moment_sup_estimate,
    property_suite,
    sweep_ensemble,
    weak_errors_shared_reference,
)
from tamedspde import drift as drift_mod


def paper_case_table(radius):
    """Independent bin-membership oracle for the step observable."""
    a = int(np.floor(radius))
    for k in range(10):
        if a + k / 10 <= radius < a + (k + 1) / 10:
            return np.sin(a + k / 10)
    return np.sin(a + 0.9)


def coeffs_with_l2_norm(n, r):
    c = np.zeros(n)
    c[0] = r
    return c


class TestStepTestFunction:
    def test_zero_radius(self, basis64):
        phi = StepTestFunction(norm_kind="l2")
        assert phi(basis64, coeffs_with_l2_norm(64, 0.0)) == 0.0

    def test_first_bin(self, basis64):
        phi = StepTestFunction(norm_kind="l2")
        assert phi(basis64, coeffs_with_l2_norm(64, 0.05)) == pytest.approx(0.0)

    def test_floor_arithmetic(self, basis64):
        phi = StepTestFunction(norm_kind="l2")
        got = phi(basis64, coeffs_with_l2_norm(64, 1.23))
        assert got == pytest.approx(np.sin(1.2), rel=1e-12)
        assert got == pytest.approx(0.9320391, abs=1e-7)

    def test_bins_match_case_table(self, basis64, rng):
        phi = StepTestFunction(norm_kind="l2")
        radii = rng.uniform(0.0, 25.0, 10_000)
        got = phi(basis64, radii[:, None] * np.eye(64)[0])
        expected = np.array([paper_case_table(r) for r in radii])
        assert np.allclose(got, expected, rtol=1e-12)

    def test_bounded_by_one(self, basis64, rng):
        phi = StepTestFunction()
        coeffs = rng.standard_normal((1000, 64)) * 10
        assert np.all(np.abs(phi(basis64, coeffs)) <= 1.0)

    def test_nodal_norm_scale(self, basis64):
        # nodal euclidean norm of a single-mode field is sqrt(N+1) times
        # its coefficient norm
        phi = StepTestFunction(norm_kind="nodal")
        c = coeffs_with_l2_norm(64, 0.3)
        assert phi.radius(basis64, c) == pytest.approx(
            0.3 * np.sqrt(65.0), rel=1e-12
        )

    def test_fixed_bin_width(self, basis64):
        # bins of width 0.1, and no field to choose another width
        phi = StepTestFunction(norm_kind="l2")
        for k in range(30):
            for r in (k / 10 + 0.001, k / 10 + 0.099):
                assert phi(basis64, coeffs_with_l2_norm(64, r)) == np.sin(k / 10)
        with pytest.raises(TypeError):
            StepTestFunction(bin_width=0.2)

    def test_unknown_norm_kind(self):
        with pytest.raises(ValueError):
            StepTestFunction(norm_kind="h1")

    def test_one_or_many_coefficient_arrays(self, basis64, rng):
        phi = StepTestFunction(norm_kind="l2")
        c = coeffs_with_l2_norm(64, 1.23)
        assert phi(basis64, c) == np.sin(1.2)
        batch = rng.standard_normal((5, 64))
        assert np.array_equal(phi(basis64, batch),
                              [phi(basis64, row) for row in batch])

    @pytest.mark.parametrize("shape", [(200, 64), (64,)], ids=["batch", "1-D"])
    def test_radii_bits_pinned(self, basis64, shape):
        # each radius equals its explicit formula bit for bit; row-wise
        # (axis=-1), since a 1-D np.linalg.norm without an axis takes a
        # dot product whose last bit can differ
        c = np.random.default_rng(11).normal(0.0, 2.0, shape)
        phys = c @ basis64._transform
        want = {"nodal": np.linalg.norm(phys, axis=-1),
                "l2": np.linalg.norm(c, axis=-1),
                "sup": np.max(np.abs(phys), axis=-1)}
        for kind, radius in want.items():
            got = StepTestFunction(norm_kind=kind).radius(basis64, c)
            assert np.shape(got) == shape[:-1], kind
            assert np.asarray(got).tobytes() == radius.tobytes(), kind


def _tamed(basis, level, epsilon=0.05, horizon=1.0):
    return SchemeConfig(
        epsilon=epsilon, tau=horizon / 2**level, n_steps=2**level, basis=basis,
        drift=ALLEN_CAHN, taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5),
    )


def _reference(basis, level, epsilon=0.05, horizon=1.0):
    tau = horizon / 2**level
    return SchemeConfig(
        epsilon=epsilon, tau=tau, n_steps=2**level, basis=basis,
        drift=ALLEN_CAHN, kind=SchemeKind.SEMI_IMPLICIT_REFERENCE,
    )


class TestWeakError:
    def test_scheme_against_itself_zero(self, basis64):
        cfg = _tamed(basis64, 5)
        errs, hws = weak_errors_shared_reference(
            [cfg], cfg, NoisePlan(3, 5), 40, StepTestFunction()
        )
        assert errs == [0.0]
        assert hws == [0.0]

    def test_constant_observable_zero(self, basis64):
        cfg = _tamed(basis64, 5)
        ref = _reference(basis64, 6)
        errs, _ = weak_errors_shared_reference(
            [cfg], ref, NoisePlan(3, 6), 40,
            lambda basis, coeffs: np.ones(len(coeffs)),
        )
        assert errs == [0.0]

    def test_coupled_halfwidth_smaller_than_uncoupled(self, basis64):
        cfg = _tamed(basis64, 5)
        ref = _reference(basis64, 7)
        plan = NoisePlan(3, 7)
        _, [hw_coupled] = weak_errors_shared_reference(
            [cfg], ref, plan, 100, StepTestFunction())
        _, [hw_uncoupled] = weak_errors_shared_reference(
            [cfg], ref, plan, 100, StepTestFunction(), coupled=False)
        assert hw_coupled < hw_uncoupled

    def test_horizon_mismatch_rejected(self, basis64):
        cfg = _tamed(basis64, 5)
        ref = _reference(basis64, 5, horizon=2.0)
        with pytest.raises(ValueError):
            weak_errors_shared_reference([cfg], ref, NoisePlan(3, 5), 10,
                                         StepTestFunction())


class TestErrorTable:
    def _rows(self, errs, taus):
        return [
            ErrorRow(level=i, tau=t, weak_error=e, mc_halfwidth=0.0,
                     n_samples=10, admissible=True, admissibility_ratio=0.1)
            for i, (t, e) in enumerate(zip(taus, errs))
        ]

    def test_taus_must_decrease(self):
        with pytest.raises(ValueError):
            ErrorTable(rows=self._rows([0.1, 0.2], [0.25, 0.25]))

    def test_errors_must_be_finite(self):
        with pytest.raises(ValueError):
            ErrorTable(rows=self._rows([0.1, np.inf], [0.5, 0.25]))


class TestRateFit:
    def _table(self, taus, errs):
        rows = [
            ErrorRow(level=i, tau=t, weak_error=e, mc_halfwidth=0.0,
                     n_samples=10, admissible=True, admissibility_ratio=0.1)
            for i, (t, e) in enumerate(zip(taus, errs))
        ]
        return ErrorTable(rows=rows)

    def test_exact_halving_slope_one(self):
        taus = [2.0**-k for k in range(4, 9)]
        fit = fit_convergence_rate(self._table(taus, list(taus)))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.residual < 1e-20

    def test_constant_errors_slope_zero(self):
        taus = [2.0**-k for k in range(4, 9)]
        fit = fit_convergence_rate(self._table(taus, [0.3] * 5))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_reference_column_slope(self):
        # published error column for the unit taming exponent; the
        # independent oracle is the covariance/variance slope formula
        errs = [0.5982, 0.3533, 0.2131, 0.1319, 0.0853]
        taus = [2.0**-k for k in range(8, 13)]
        x = np.log2(taus)
        y = np.log2(errs)
        slope_oracle = float(
            np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
        )
        fit = fit_convergence_rate(self._table(taus, errs))
        assert fit.slope == pytest.approx(slope_oracle, rel=1e-12)
        assert fit.slope == pytest.approx(0.704, abs=5e-4)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
    def test_synthetic_rate_recovery(self, gamma):
        taus = [2.0**-k for k in range(4, 10)]
        errs = [3.7 * t**gamma for t in taus]
        fit = fit_convergence_rate(self._table(taus, errs))
        assert fit.slope == pytest.approx(gamma, abs=1e-10)
        assert fit.residual < 1e-18

    def test_normal_equations_identity(self):
        taus = [2.0**-k for k in range(4, 9)]
        errs = [0.41, 0.22, 0.13, 0.06, 0.035]
        fit = fit_convergence_rate(self._table(taus, errs))
        x = np.log2(taus)
        design = np.column_stack([x, np.ones_like(x)])
        resid = np.log2(errs) - design @ np.array([fit.slope, fit.intercept])
        assert np.max(np.abs(design.T @ resid)) < 1e-10

    def test_needs_three_rows(self):
        taus = [0.5, 0.25]
        with pytest.raises(ValueError):
            fit_convergence_rate(self._table(taus, [0.2, 0.1]))

    def test_rejects_nonpositive_errors(self):
        taus = [0.5, 0.25, 0.125]
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="rate fit refused"):
                fit_convergence_rate(self._table(taus, [0.2, bad, 0.1]))


class TestMoments:
    def test_ou_stationary_l2_energy(self, basis64):
        # drift off, X0 = 0: stationary E|X|_L2^2 = sum_j 1/(2 lambda_j),
        # evaluated by direct partial summation
        target = float(np.sum(1.0 / (2.0 * basis64.eigenvalues)))
        assert target == pytest.approx(0.0825, abs=2e-4)
        cfg = SchemeConfig(epsilon=1.0, tau=2.0**-5, n_steps=64, basis=basis64,
                           drift=None)
        report = moment_sup_estimate(
            cfg, NoisePlan(17, 6), 4000, [1.0, 2.0], x0=np.zeros(64)
        )
        got = report.mean_l2_sq[-1]
        se = target * np.sqrt(2.0 / 63) / np.sqrt(4000) * 8  # loose guard
        assert got == pytest.approx(target, abs=max(4 * 0.0745 / np.sqrt(4000), se))

    def test_deterministic_two_samples(self, basis64):
        # the t = 0 row is the initial state's, whatever the noise; the
        # heat flow then takes |X|^2 from 0.5 towards the noise's ~0.08
        cfg = SchemeConfig(epsilon=1.0, tau=2.0**-4, n_steps=16, basis=basis64,
                           drift=None)
        report = moment_sup_estimate(cfg, NoisePlan(1, 4), 2, [0.0, 0.5, 1.0])
        rec_norms = np.linalg.norm(default_initial(basis64))
        assert report.mean_l2_sq[0] == pytest.approx(rec_norms**2, rel=1e-12)
        assert report.max_mean_l2_sq == report.mean_l2_sq[0]

    def test_off_grid_time_rejected(self, basis64):
        cfg = SchemeConfig(epsilon=1.0, tau=2.0**-4, n_steps=16, basis=basis64,
                           drift=None)
        with pytest.raises(ValueError):
            moment_sup_estimate(cfg, NoisePlan(1, 4), 2, [0.3])

    @staticmethod
    def tamed(basis, level):
        tau = 2.0**-level
        return SchemeConfig(
            epsilon=0.05, tau=tau, n_steps=2**level, basis=basis,
            drift=ALLEN_CAHN,
            taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_in_sweep_norms_equal_full_snapshot_means(self, basis64, threads):
        # 257 samples: chunks of 256 and 1.  The oracle is the reduction
        # of full-state snapshots after the sweep, in the formulas the
        # estimator used before it reduced inside the sweep
        cfg = self.tamed(basis64, 6)
        plan = NoisePlan(5, 6)
        times = [m * cfg.tau for m in range(cfg.n_steps + 1)]
        report = moment_sup_estimate(cfg, plan, 257, times, threads=threads)
        outs, _ = sweep_ensemble([cfg], plan, 257, snapshot_times=[times],
                                 threads=threads)
        l2sq, l44, sup = [], [], []
        for t in times:
            coeffs = outs[0].snapshots[t]
            phys = basis64.to_physical(coeffs)
            l2sq.append(np.mean(np.sum(coeffs**2, axis=-1)))
            l44.append(np.mean(np.sum(phys**4, axis=-1) / (basis64.n_modes + 1)))
            sup.append(np.mean(np.max(np.abs(phys), axis=-1)))
        assert report.mean_l2_sq.tobytes() == np.array(l2sq).tobytes()
        assert report.mean_l4_4.tobytes() == np.array(l44).tobytes()
        assert report.mean_sup.tobytes() == np.array(sup).tobytes()

    def test_memory_holds_norms_not_states(self, basis64):
        # a snapshot at each of 513 steps: full (100, 64) states would
        # take 26 MB, three norms per sample take 1.2 MB
        cfg = self.tamed(basis64, 9)
        times = [m * cfg.tau for m in range(cfg.n_steps + 1)]
        tracemalloc.start()
        try:
            moment_sup_estimate(cfg, NoisePlan(3, 9), 100, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, f"traced peak {peak / 1e6:.1f} MB"


class TestInterfaceProfile:
    def test_initial_profile_exact(self, basis64):
        cfg = _tamed(basis64, 4, epsilon=0.05)
        (profile,) = interface_profile([cfg], NoisePlan(5, 4), 3, [0.0, 1.0])
        assert np.allclose(profile.mean_values[0],
                           np.sin(np.pi * basis64.grid), atol=1e-12)
        assert profile.mean_values.shape == (2, 64)

    def test_heat_decay_profile(self, basis64):
        # the profile is the nodewise mean of the sweep's stored snapshots
        cfg = SchemeConfig(epsilon=1.0, tau=2.0**-4, n_steps=16, basis=basis64,
                           drift=None)
        plan = NoisePlan(5, 4)
        (profile,) = interface_profile([cfg], plan, 2, [0.5])
        outs, _ = sweep_ensemble([cfg], plan, 2, snapshot_times=[[0.5]])
        expected = basis64.to_physical(outs[0].snapshots[0.5]).mean(axis=0)
        assert profile.mean_values[0].tobytes() == expected.tobytes()

    def test_one_sweep_per_scheme_list(self, basis64):
        # schemes in one call share the noise path: each profile set equals
        # the one from a call of its own, bit for bit
        cfgs = [_tamed(basis64, 4, epsilon=eps) for eps in (0.05, 0.5)]
        plan = NoisePlan(5, 4)
        together = interface_profile(cfgs, plan, 3, [0.0, 0.5, 1.0])
        for cfg, got in zip(cfgs, together):
            (alone,) = interface_profile([cfg], plan, 3, [0.0, 0.5, 1.0])
            assert got.mean_values.tobytes() == alone.mean_values.tobytes()


class TestPropertySuite:
    def test_default_drift_passes(self):
        report = property_suite(n=20_000)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert names == {
            "taming_domination", "taming_gap", "one_sided_delta_derivative",
            "delta_derivative_growth", "power_mean_inequality",
        }

    def test_seed_does_not_change_status(self):
        statuses = {
            property_suite(seed=s, n=5_000).all_passed for s in range(5)
        }
        assert statuses == {True}

    def test_report_serializable(self):
        import json

        report = property_suite(n=5_000)
        payload = json.dumps(report.as_dict())
        assert "taming_domination" in payload

    def test_broken_taming_is_caught(self, monkeypatch):
        # remove the taming denominator: |f_tau| = 2|f| violates domination
        monkeypatch.setattr(
            drift_mod, "_taming_denominator",
            lambda x, alpha, out=None: np.full_like(np.asarray(x, dtype=float),
                                                    0.5),
        )
        report = property_suite(n=5_000)
        assert not report.all_passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "taming_domination" in failing
        bad = next(c for c in report.checks if c.name == "taming_domination")
        assert "u" in bad.counterexample

    def test_domination_checks_the_production_taming(self, monkeypatch):
        # an untamed f_tau = 2 f must fail the check that reads it; the
        # taming gap forms its own quotient and is not affected
        monkeypatch.setattr(drift_mod, "f_tau_eval",
                            lambda d, p, tau, v: 2.0 * drift_mod.f_eval(d, v))
        report = property_suite(n=5_000)
        failing = {c.name for c in report.checks if not c.passed}
        assert failing == {"taming_domination"}
        bad = next(c for c in report.checks if c.name == "taming_domination")
        assert set(bad.counterexample) == {"u", "alpha", "beta", "theta", "tau"}
