"""Drift polynomial, taming, regularization, and certified constants."""

import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from tamedspde import (
    ALLEN_CAHN,
    DriftSpec,
    SchemeConfig,
    SineBasis,
    TamingParams,
    derive_growth_constants,
    f_delta_eval,
    f_delta_prime_eval,
    f_eval,
    f_prime_eval,
    f_tau_eval,
    step_size_condition,
)
from tamedspde.drift import (
    DriftConstants,
    DriftDerivationError,
    _abs_power,
    _taming_denominator,
    check_delta_derivative_growth,
    check_one_sided_delta_derivative,
    check_power_mean_inequality,
    check_taming_domination,
    check_taming_gap,
    verification_grid,
)


class TestDriftSpec:
    def test_allen_cahn_values(self):
        assert f_eval(ALLEN_CAHN, 0.0) == 0.0
        assert f_eval(ALLEN_CAHN, 1.0) == 0.0
        assert f_eval(ALLEN_CAHN, 2.0) == -6.0

    def test_vectorized(self):
        v = np.array([-1.0, 0.0, 0.5, 2.0])
        assert np.allclose(f_eval(ALLEN_CAHN, v), v - v**3)

    def test_in_place_horner_matches_polyval_bits(self, rng):
        # numpy's polyval is the reference the sweep's bytes were pinned
        # with: f and f' give its bits on finite input and NaN, also where
        # interior coefficients are zero and their adds are skipped
        drifts = [DriftSpec(q=3, leading=2.0, lower=(0.5, 3.0, -1.0, 0.25)),
                  ALLEN_CAHN, DriftSpec(q=3, leading=2.0, lower=(0, 0, 1)),
                  DriftSpec(q=4, leading=1.5)]
        v = np.concatenate([rng.standard_normal((50, 64)).ravel() * 3,
                            [0.0, -0.0, 1.0, -1.0, 1e80, -1e80, np.nan]])
        for d in drifts:
            with np.errstate(over="ignore", invalid="ignore"):
                want = npoly.polyval(v, d.coeffs).tobytes()
                assert f_eval(d, v).tobytes() == want
                out = np.empty_like(v)
                assert f_eval(d, v, out=out) is out
                assert out.tobytes() == want
                assert (f_prime_eval(d, v).tobytes()
                        == npoly.polyval(v, npoly.polyder(d.coeffs)).tobytes())
            # at +-inf polyval's v * 0 gives NaN; f and f' give their
            # limits: f (odd degree, negative leading) -inf at +inf, and
            # f' (even degree) -inf at both ends
            assert f_eval(d, [np.inf, -np.inf]).tolist() == [-np.inf, np.inf]
            assert f_prime_eval(d, [np.inf, -np.inf]).tolist() == [-np.inf] * 2
        assert type(f_eval(d, 1.5)) is type(npoly.polyval(1.5, d.coeffs))
        assert type(f_prime_eval(d, 1.5)) is type(npoly.polyval(1.5, d.coeffs))

    def test_coeffs_built_once_read_only(self):
        d = DriftSpec(q=3, leading=2.0, lower=(0.5, 0.0, -1.0))
        assert d.coeffs is d.coeffs
        assert d.coeffs.tolist() == [0.5, 0.0, -1.0, 0.0, 0.0, -2.0]
        with pytest.raises(ValueError):
            d.coeffs[0] = 1.0
        assert d == DriftSpec(q=3, leading=2.0, lower=(0.5, 0.0, -1.0))

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            DriftSpec(q=2, leading=0.0)
        with pytest.raises(ValueError):
            DriftSpec(q=2, leading=-1.0, lower=(0.0, 1.0))

    def test_rejects_q_below_two(self):
        with pytest.raises(ValueError):
            DriftSpec(q=1, leading=1.0)

    def test_integral_float_q_stored_as_int(self):
        # q = 2.0 passes the integer check; the coefficient array needs an int
        d = DriftSpec(q=2.0, leading=1.0, lower=(0.0, 1.0))
        assert type(d.q) is int
        assert d == ALLEN_CAHN
        assert d.coeffs.tolist() == ALLEN_CAHN.coeffs.tolist()

    def test_rejects_oversized_f0(self):
        with pytest.raises(ValueError):
            DriftSpec(q=2, leading=1.0, lower=(0.0, 0.0, 0.0, 1.0))

    def test_quintic(self):
        d = DriftSpec(q=3, leading=2.0, lower=(0.0, 3.0))
        v = np.linspace(-2, 2, 41)
        assert np.allclose(f_eval(d, v), -2.0 * v**5 + 3.0 * v)


class TestTamedDrift:
    def setup_method(self):
        self.params = TamingParams(alpha=1.0, beta=5.0, theta=0.5)
        self.tau = 2.0**-10

    def test_zeros_preserved(self):
        assert f_tau_eval(ALLEN_CAHN, self.params, self.tau, 0.0) == 0.0
        assert f_tau_eval(ALLEN_CAHN, self.params, self.tau, 1.0) == 0.0

    def test_direct_arithmetic(self):
        # f(2) = -6 over 1 + 5 * 2^-5 * 4 = 1.625
        got = f_tau_eval(ALLEN_CAHN, self.params, self.tau, 2.0)
        assert got == pytest.approx(-6.0 / 1.625, rel=1e-15)
        assert got == pytest.approx(-3.6923077, abs=1e-7)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1.0 / 3.0, 0.25])
    def test_fast_power_paths_match_reference(self, alpha):
        params = TamingParams(alpha=alpha, beta=5.0, theta=0.5)
        v = np.linspace(-30, 30, 1001)
        x = 5.0 * (2.0**-8) ** 0.5 * np.abs(v) ** ((2 * 2 - 2) / alpha)
        expected = f_eval(ALLEN_CAHN, v) / (1.0 + x) ** alpha
        assert np.allclose(f_tau_eval(ALLEN_CAHN, params, 2.0**-8, v), expected,
                           rtol=1e-12, atol=1e-300)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TamingParams(alpha=0.0, beta=5.0, theta=0.5)
        with pytest.raises(ValueError):
            TamingParams(alpha=2.5, beta=5.0, theta=0.5)
        with pytest.raises(ValueError):
            TamingParams(alpha=1.0, beta=-5.0, theta=0.5)
        # the step size is the scheme's, horizon / 2**level, and the
        # scheme rejects a horizon <= 0, so tau > 0
        with pytest.raises(ValueError, match="horizon"):
            SchemeConfig(epsilon=0.5, horizon=0.0, level=0, basis=SineBasis(4),
                         drift=ALLEN_CAHN,
                         taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5))

    @given(
        v=st.floats(-1e3, 1e3),
        beta=st.floats(0.1, 100.0),
        tau=st.floats(2.0**-14, 0.25),
        theta=st.floats(0.1, 0.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_domination_property(self, v, beta, tau, theta):
        params = TamingParams(alpha=min(1.0, 0.99 / theta), beta=beta,
                              theta=theta)
        assert abs(f_tau_eval(ALLEN_CAHN, params, tau, v)) <= abs(
            f_eval(ALLEN_CAHN, v)
        ) * (1 + 1e-12) + 1e-300


class TestRegularizedDrift:
    def test_zero(self):
        assert f_delta_eval(ALLEN_CAHN, 1.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        assert f_delta_eval(ALLEN_CAHN, 1.0, 2.0) == pytest.approx(-1.2, rel=1e-15)

    def test_pointwise_limit(self):
        # exact value -6 / (1 + 1e-6 * 4); the gap to f(2) = -6 is 2.4e-5
        assert f_delta_eval(ALLEN_CAHN, 1e-12, 2.0) == pytest.approx(
            -6.0 / (1.0 + 4e-6), rel=1e-14
        )
        assert abs(f_delta_eval(ALLEN_CAHN, 1e-12, 2.0) + 6.0) < 3e-5
        assert abs(f_delta_eval(ALLEN_CAHN, 1e-13, 2.0) + 6.0) < 1e-5

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.5])
    def test_domain(self, delta):
        with pytest.raises(ValueError):
            f_delta_eval(ALLEN_CAHN, delta, 1.0)
        with pytest.raises(ValueError):
            f_delta_prime_eval(ALLEN_CAHN, delta, 1.0)


class TestDerivatives:
    def test_prime_values(self):
        assert f_prime_eval(ALLEN_CAHN, 0.0) == 1.0
        assert f_prime_eval(ALLEN_CAHN, 1.0) == -2.0

    def test_delta_prime_at_origin(self):
        assert f_delta_prime_eval(ALLEN_CAHN, 1.0, 0.0) == pytest.approx(
            f_prime_eval(ALLEN_CAHN, 0.0), rel=1e-14
        )

    @pytest.mark.parametrize("delta", [1.0, 1e-2, 1e-4])
    def test_delta_prime_matches_finite_difference(self, delta):
        v = np.linspace(-5.0, 5.0, 201)
        step = 1e-6
        fd = (f_delta_eval(ALLEN_CAHN, delta, v + step)
              - f_delta_eval(ALLEN_CAHN, delta, v - step)) / (2 * step)
        exact = f_delta_prime_eval(ALLEN_CAHN, delta, v)
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-6)


class TestGrowthConstants:
    def test_allen_cahn_constants(self):
        dc = derive_growth_constants(ALLEN_CAHN)
        assert dc.c3 == 1.0
        assert dc.c4 == 1.0
        assert dc.c5 == 0.0
        assert dc.L_f == pytest.approx(1.0, abs=1e-9)
        assert dc.c0 == 0.5

    def test_growth_bound_on_grid(self):
        dc = derive_growth_constants(ALLEN_CAHN)
        u = verification_grid()
        assert np.all(
            np.abs(f_eval(ALLEN_CAHN, u))
            <= dc.c3 * np.abs(u) ** 3 + dc.c4 * np.abs(u) + dc.c5 + 1e-9
        )

    def test_one_sided_lipschitz_on_grid(self):
        dc = derive_growth_constants(ALLEN_CAHN)
        u = verification_grid()
        assert np.all(f_prime_eval(ALLEN_CAHN, u) <= dc.L_f + 1e-12)

    def test_coercivity_on_grid(self):
        dc = derive_growth_constants(ALLEN_CAHN)
        pts = np.linspace(-900.0, 900.0, 301)
        u = pts[:, None]
        v = pts[None, :]
        lhs = (u + v) * f_eval(ALLEN_CAHN, u)
        rhs = -dc.c0 * u**4 + dc.c1 * v**4 + dc.c2
        assert np.all(lhs <= rhs + 1e-6 * np.maximum(1.0, np.abs(rhs)))

    def test_adversarial_leading_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(q=2, leading=-1.0)

    def test_certification_failure_names_the_violation(self):
        # dissipative only far outside the verification grid: the
        # coercivity supremum escapes to the boundary for every candidate
        from tamedspde import DriftDerivationError

        monster = DriftSpec(q=2, leading=1e-9, lower=(0.0, 0.0, 1e6))
        with pytest.raises(DriftDerivationError, match=r"G peaks at u = "):
            derive_growth_constants(monster)


def full_grid_constants(d, bound=1e3, pair_grid=401):
    """The certification search on a whole (n, n) grid in (u, v): the
    oracle for the 1-D search, which takes the supremum over v exactly."""
    coeffs = d.coeffs
    deg = 2 * d.q - 1
    mid = float(np.abs(coeffs[2:deg]).sum()) if deg > 2 else 0.0
    c3 = float(abs(coeffs[deg])) + mid
    c4 = float(abs(coeffs[1]))
    c5 = float(abs(coeffs[0])) + mid
    L_f = float(np.max(f_prime_eval(d, verification_grid())))
    mags = np.logspace(-6, np.log10(bound), pair_grid)
    axis = np.concatenate([-mags[::-1], [0.0], mags])
    u = axis[:, None]
    v = axis[None, :]
    fu = f_eval(d, u)
    u2q = _abs_power(u, 2 * d.q)
    v2q = _abs_power(v, 2 * d.q)
    interior = np.abs(axis) <= bound / 2.0
    last_violation = None
    for k in range(0, 12):
        c0 = d.leading / 2.0**k
        base = (u + v) * fu + c0 * u2q
        for j in range(-2, 10):
            c1 = d.leading * 2.0**j
            g = base - c1 * v2q
            idx = np.unravel_index(np.argmax(g), g.shape)
            if interior[idx[0]] and interior[idx[1]]:
                c2 = max(float(g[idx]), 0.0)
                return DriftConstants(L_f, c0, c1, c2, c3, c4, c5)
            last_violation = (float(axis[idx[0]]), float(axis[idx[1]]))
    raise DriftDerivationError(
        "no (c0, c1) candidate certified the coercivity bound on the grid; "
        f"supremum escaped to the boundary near (u, v) = {last_violation}"
    )


#: the drifts whose certificates are compared with the full-grid oracle
CERTIFIED = [
    ALLEN_CAHN,
    DriftSpec(q=3, leading=2.0),
    DriftSpec(q=2, leading=0.1, lower=(1.0, 3.0, 2.0)),
    DriftSpec(q=3, leading=2.0, lower=(0.5, -1.0, 0.3, 0.7, -0.2)),
    DriftSpec(q=2, leading=0.3, lower=(-0.4, 2.0, 1.5)),
]
CERTIFIED_IDS = ["allen-cahn", "q3", "q2-dominant-f0", "q3-lower-terms",
                 "q2-quadratic"]


class TestBlockedCertification:
    """The 1-D search, exact in v, against the (803, 803) grid search."""

    @pytest.mark.parametrize("d", CERTIFIED, ids=CERTIFIED_IDS)
    def test_constants_equal_full_grid_bits(self, d):
        # every constant but c2 keeps the grid search's bits; c2, now a
        # supremum over every real v, is at least the grid's maximum
        got = derive_growth_constants(d)
        want = full_grid_constants(d)
        assert (np.array(astuple(replace(got, c2=0.0))).tobytes()
                == np.array(astuple(replace(want, c2=0.0))).tobytes())
        assert got.c2 >= want.c2
        assert got.c0 < d.leading

    @pytest.mark.parametrize("d", CERTIFIED, ids=CERTIFIED_IDS)
    def test_young_maximiser_stays_below_c2(self, d):
        # g(u, v) = (u+v) f(u) + c0|u|^2q - c1|v|^2q is largest over v at
        # v* = sign(f) (|f| / (2q c1))^(1/(2q-1)); c2 must bound it at
        # every grid u
        dc = derive_growth_constants(d)
        p = 2 * d.q
        u = verification_grid()
        fu = f_eval(d, u)
        v = np.sign(fu) * (np.abs(fu) / (p * dc.c1)) ** (1.0 / (p - 1))
        g = (u + v) * fu + dc.c0 * np.abs(u) ** p - dc.c1 * np.abs(v) ** p
        assert np.max(g) <= dc.c2 + 1e-12 * max(1.0, dc.c2)

    @pytest.mark.parametrize("d, why", [
        (DriftSpec(q=2, leading=1e-9, lower=(0.0, 0.0, 1e6)),
         r"G peaks at u = 1000\.0 with 5\.9\d*e\+17; a certified maximum"),
        # |u|^120 overflows: G is NaN from the grid's first point on
        (DriftSpec(q=60, leading=1.0), r"G peaks at u = -1000\.0 with nan"),
        # leading^(4/3) overflows: the |u|^4 coefficient is not negative
        (DriftSpec(q=2, leading=1e308), r"G's \|u\|\^4 coefficient is nan"),
    ], ids=["monster", "overflowing", "leading-huge"])
    def test_failure_names_why(self, d, why):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DriftDerivationError, match=why):
                derive_growth_constants(d)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DriftDerivationError):
                full_grid_constants(d)

    def test_allen_cahn_constants_pinned(self):
        dc = derive_growth_constants(ALLEN_CAHN)
        assert (dc.c0, dc.c1, dc.c2) == (0.5, 1.0, 1.3521745459521632)

    def test_memory_is_row_blocked(self):
        # the (803, 803) grids came to 22 MB; the search now keeps four
        # grid-length arrays of 200,001 points live, 6.4 MB
        tracemalloc.start()
        try:
            derive_growth_constants(ALLEN_CAHN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


def abs_power_oracle(v, p):
    """|v|**p by repeated squaring into fresh arrays."""
    if float(p).is_integer() and 1 <= p <= 16:
        n = int(p)
        odd = np.abs(v) if n % 2 else None
        acc, base, m = None, v * v, n // 2
        while m:
            if m & 1:
                acc = base if acc is None else acc * base
            m >>= 1
            if m:
                base = base * base
        if acc is None:
            return odd
        return acc if odd is None else acc * odd
    return np.abs(v) ** p


def taming_denominator_oracle(x, alpha):
    """(1 + x)^alpha into fresh arrays."""
    if alpha == 1.0:
        return 1.0 + x
    if alpha == 0.5:
        return np.sqrt(1.0 + x)
    if alpha == 0.25:
        return np.sqrt(np.sqrt(1.0 + x))
    if alpha == 1.0 / 3.0:
        return np.cbrt(1.0 + x)
    return np.exp(alpha * np.log1p(x))


class TestTamingInPlace:
    """``out=`` on the taming helpers keeps every bit."""

    STATES = np.random.default_rng(7).normal(0.0, 3.0, (50, 16))

    @pytest.mark.parametrize("p", [*range(1, 17), 0.5, 2.5])
    def test_abs_power_into_out(self, p):
        want = abs_power_oracle(self.STATES, p).tobytes()
        out = np.empty_like(self.STATES)
        got = _abs_power(self.STATES, p, out=out)
        assert got is out
        assert got.tobytes() == want
        assert _abs_power(self.STATES, p).tobytes() == want

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1.0 / 3.0, 0.25, 0.7])
    def test_taming_denominator_in_place(self, alpha):
        x = np.abs(self.STATES)
        want = taming_denominator_oracle(x, alpha).tobytes()
        buf = x.copy()
        got = _taming_denominator(buf, alpha, out=buf)
        assert got is buf
        assert got.tobytes() == want
        assert _taming_denominator(x, alpha).tobytes() == want

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1.0 / 3.0, 0.25, 0.7])
    def test_f_tau_eval_into_out(self, alpha):
        # the sweep's call: the drift into ``out``, the taming in
        # ``scratch``; the oracle takes a fresh array per operation
        params, tau = TamingParams(alpha=alpha, beta=5.0, theta=0.5), 2.0**-7
        x = params.beta * tau**params.theta * abs_power_oracle(
            self.STATES, 2 / alpha)
        want = f_eval(ALLEN_CAHN, self.STATES) / taming_denominator_oracle(
            x, alpha)
        out, scratch = np.empty_like(self.STATES), np.empty_like(self.STATES)
        got = f_tau_eval(ALLEN_CAHN, params, tau, self.STATES, out=out,
                         scratch=scratch)
        assert got is out
        assert got.tobytes() == want.tobytes()
        assert f_tau_eval(ALLEN_CAHN, params, tau,
                          self.STATES).tobytes() == want.tobytes()
        # a 0-d input still gives a scalar, with the same bits
        one = f_tau_eval(ALLEN_CAHN, params, tau, self.STATES[3, 5])
        assert not isinstance(one, np.ndarray) and np.ndim(one) == 0
        assert one == want[3, 5]


class TestStepSizeCondition:
    def setup_method(self):
        self.dc = derive_growth_constants(ALLEN_CAHN)

    def test_admissible_beta100(self):
        params = TamingParams(alpha=1.0, beta=100.0, theta=0.5)
        ratio = step_size_condition(self.dc, params, 2.0**-10, 0.01)
        assert ratio <= 1.0
        # LHS = 2 * 2^-5 = 0.0625, RHS = 0.5 * 100 * 0.01 = 0.5
        assert ratio == pytest.approx(0.125, rel=1e-12)

    def test_violated_beta5(self):
        params = TamingParams(alpha=1.0, beta=5.0, theta=0.5)
        ratio = step_size_condition(self.dc, params, 2.0**-10, 0.01)
        assert not ratio <= 1.0
        assert ratio == pytest.approx(2.5, rel=1e-12)

    def test_vanishing_tau_admissible(self):
        params = TamingParams(alpha=1.0, beta=5.0, theta=0.5)
        assert step_size_condition(self.dc, params, 2.0**-40, 0.01) <= 1.0

    def test_bad_epsilon(self):
        params = TamingParams(alpha=1.0, beta=5.0, theta=0.5)
        with pytest.raises(ValueError):
            step_size_condition(self.dc, params, 1e-3, 0.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1.0 / 3.0, 0.25])
    def test_ratio_reads_only_c0_and_c3(self, alpha):
        # the ratio is the constants' one way into an output CSV, so no
        # CSV can move with L_f, c1, c2, c4 or c5
        params = TamingParams(alpha=alpha, beta=5.0, theta=0.5)
        nan = float("nan")
        blind = replace(self.dc, L_f=nan, c1=nan, c2=nan, c4=nan, c5=nan)
        for tau in (2.0**-4, 2.0**-10):
            assert (step_size_condition(blind, params, tau, 0.01)
                    == step_size_condition(self.dc, params, tau, 0.01))


class TestInvariantChecks:
    def test_taming_domination(self):
        result = check_taming_domination(ALLEN_CAHN, seed=7)
        assert result.passed, result.counterexample

    def test_taming_gap(self):
        result = check_taming_gap(ALLEN_CAHN, seed=8)
        assert result.passed, result.counterexample

    def test_one_sided_delta_derivative(self):
        result = check_one_sided_delta_derivative(ALLEN_CAHN)
        assert result.passed, result.counterexample

    def test_delta_derivative_growth(self):
        result = check_delta_derivative_growth(ALLEN_CAHN)
        assert result.passed, result.counterexample

    def test_power_mean_inequality(self):
        result = check_power_mean_inequality(seed=9)
        assert result.passed, result.counterexample

    def test_power_mean_inequality_tightness(self):
        # rho = 1 collapses the inequality to (A + rB) <= A + r(1 + 2e^0)B,
        # so violations of a wrongly transcribed bound would be caught
        rng = np.random.default_rng(0)
        A, B = rng.uniform(0, 10, (2, 1000))
        r = rng.uniform(0.1, 2.0, 1000)
        lhs = A + r * B
        rhs = A + r * (1.0 + 2.0 * (1.0 + 1.0)) * B
        assert np.all(lhs <= rhs * (1 + 1e-12))
