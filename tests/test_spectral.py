"""Sine basis: spectrum, transform pair, semigroup, and norms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedspde import SineBasis, default_initial


def direct_to_physical(basis, coeffs):
    """O(N^2) double-loop oracle for the forward transform."""
    n = basis.n_modes
    values = np.zeros(n)
    for i in range(n):
        for j in range(1, n + 1):
            values[i] += coeffs[j - 1] * np.sqrt(2.0) * np.sin(
                j * np.pi * basis.grid[i]
            )
    return values


def direct_to_spectral(basis, values):
    """O(N^2) double-loop oracle for the inverse transform."""
    n = basis.n_modes
    coeffs = np.zeros(n)
    for j in range(1, n + 1):
        for i in range(n):
            coeffs[j - 1] += values[i] * np.sin(j * np.pi * basis.grid[i])
        coeffs[j - 1] *= np.sqrt(2.0) / (n + 1)
    return coeffs


class TestEigenvalues:
    @pytest.mark.parametrize("j", [1, 2, 8, 64])
    def test_exact_spectrum(self, basis64, j):
        assert basis64.eigenvalue(j) == pytest.approx((j * np.pi) ** 2, rel=1e-15)

    def test_known_values(self, basis64):
        assert basis64.eigenvalue(1) == pytest.approx(9.8696044, rel=1e-7)
        assert basis64.eigenvalue(2) == pytest.approx(39.4784176, rel=1e-7)
        assert basis64.eigenvalue(8) == pytest.approx(631.654681, rel=1e-8)

    def test_strictly_increasing(self, basis64):
        assert np.all(np.diff(basis64.eigenvalues) > 0)

    @pytest.mark.parametrize("j", [0, -1, 65])
    def test_out_of_range(self, basis64, j):
        with pytest.raises(IndexError):
            basis64.eigenvalue(j)

    def test_grid_interior_equispaced(self, basis64):
        g = basis64.grid
        assert np.all((g > 0) & (g < 1))
        assert np.allclose(np.diff(g), 1.0 / 65.0, rtol=1e-14)


class TestTransforms:
    def test_single_mode_forward(self, basis64):
        values = basis64.to_physical(default_initial(basis64))
        assert np.allclose(values, np.sin(np.pi * basis64.grid), atol=1e-13)

    def test_zeros(self, basis64):
        z = np.zeros(64)
        assert np.all(basis64.to_physical(z) == 0)
        assert np.all(basis64.to_spectral(z) == 0)

    def test_forward_matches_direct_sum(self, basis16, rng):
        coeffs = rng.standard_normal(16)
        assert np.allclose(
            basis16.to_physical(coeffs), direct_to_physical(basis16, coeffs),
            rtol=1e-12, atol=1e-12,
        )

    def test_inverse_matches_direct_sum(self, basis16, rng):
        values = rng.standard_normal(16)
        assert np.allclose(
            basis16.to_spectral(values), direct_to_spectral(basis16, values),
            rtol=1e-12, atol=1e-12,
        )

    def test_sine_orthogonality_at_nodes(self, basis64):
        # sum_i sin(j pi x_i) sin(k pi x_i) = (N+1)/2 delta_jk
        s = np.sin(np.pi * np.outer(np.arange(1, 65), basis64.grid))
        gram = s @ s.T
        assert np.allclose(gram, np.eye(64) * 65.0 / 2.0, atol=1e-9)

    def test_delta_function_coefficients(self, basis64):
        i0 = 20
        values = np.zeros(64)
        values[i0] = 1.0
        expected = (np.sqrt(2.0) / 65.0) * np.sin(
            np.arange(1, 65) * np.pi * basis64.grid[i0]
        )
        assert np.allclose(basis64.to_spectral(values), expected, atol=1e-14)

    def test_roundtrip_100_random_fields(self, basis64, rng):
        coeffs = rng.standard_normal((100, 64))
        back = basis64.to_spectral(basis64.to_physical(coeffs))
        assert np.max(np.abs(back - coeffs)) < 1e-12 * np.max(np.abs(coeffs))

    def test_batched_matches_loop(self, basis64, rng):
        batch = rng.standard_normal((7, 64))
        rows = np.stack([basis64.to_physical(c) for c in batch])
        # batched GEMM may differ from row-by-row GEMV in the last ulp
        assert np.allclose(basis64.to_physical(batch), rows, rtol=1e-13)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        basis = SineBasis(32)
        coeffs = np.random.default_rng(seed).uniform(-100, 100, 32)
        back = basis.to_spectral(basis.to_physical(coeffs))
        assert np.allclose(back, coeffs, rtol=1e-10, atol=1e-10)


class TestSemigroup:
    def test_identity_at_zero(self, basis64, rng):
        u = rng.standard_normal(64)
        assert np.array_equal(basis64.semigroup_apply(u, 0.0), u)

    def test_single_mode_factor(self, basis64):
        u = default_initial(basis64)
        out = basis64.semigroup_apply(u, 0.1)
        assert out[0] == pytest.approx(u[0] * np.exp(-0.1 * np.pi**2), rel=1e-14)
        assert out[0] / u[0] == pytest.approx(0.372708, abs=5e-7)

    def test_negative_time_rejected(self, basis64):
        with pytest.raises(ValueError):
            basis64.semigroup_apply(np.zeros(64), -1e-9)

    def test_long_time_annihilates(self, basis64, rng):
        u = rng.standard_normal(64)
        assert np.sqrt(basis64.norms(basis64.semigroup_apply(u, 1e3))[0]) < 1e-300

    def test_composition(self, basis64, rng):
        u = rng.standard_normal(64)
        a = basis64.semigroup_apply(basis64.semigroup_apply(u, 0.3), 0.2)
        b = basis64.semigroup_apply(u, 0.5)
        assert np.allclose(a, b, rtol=1e-12)

    def test_contraction_bound(self, basis64, rng):
        lam1 = basis64.eigenvalue(1)
        for t in (0.01, 0.1, 1.0):
            u = rng.standard_normal(64)
            assert (
                np.sqrt(basis64.norms(basis64.semigroup_apply(u, t))[0])
                <= np.exp(-lam1 * t) * np.sqrt(basis64.norms(u)[0]) * (1 + 1e-12)
            )


class TestNorms:
    """``norms`` gives (squared L2, fourth power of L4, sup) per field."""

    def test_single_mode_l2(self, basis64):
        # the function sin(pi x) has squared L2 norm 1/2 (Gauss quadrature)
        x, w = np.polynomial.legendre.leggauss(60)
        integral = 0.5 * np.sum(w * np.sin(np.pi * 0.5 * (x + 1)) ** 2)
        l2sq = basis64.norms(default_initial(basis64))[0]
        assert l2sq == pytest.approx(integral, rel=1e-12)
        assert l2sq == pytest.approx(0.5, rel=1e-14)

    def test_zeros_all_kinds(self, basis64):
        assert basis64.norms(np.zeros(64)).tolist() == [0.0, 0.0, 0.0]
        assert basis64.norms(np.zeros((3, 64))).tolist() == [[0.0] * 3] * 3

    def test_parseval(self, basis64, rng):
        # discrete orthogonality: the nodal rectangle rule of u^2 equals
        # the coefficient sum
        u = rng.standard_normal(64)
        nodal = np.sum(basis64.to_physical(u) ** 2) / 65
        assert basis64.norms(u)[0] == pytest.approx(nodal, rel=1e-12)

    def test_quadrature_consistency_smooth(self, basis64, rng):
        # L^4 by the rectangle rule vs Gauss quadrature of the same smooth
        # field: gap < 5% at N=64
        decay = 1.0 / np.arange(1, 65) ** 2
        x, w = np.polynomial.legendre.leggauss(400)
        nodes = 0.5 * (x + 1)
        modes = np.sqrt(2.0) * np.sin(np.pi * np.outer(np.arange(1, 65), nodes))
        for _ in range(20):
            u = rng.standard_normal(64) * decay
            exact = 0.5 * np.sum(w * (u @ modes) ** 4)
            assert abs(basis64.norms(u)[1] - exact) / exact < 0.05

    def test_sup_single_mode(self, basis64):
        sup = basis64.norms(default_initial(basis64))[2]
        assert 0.99 <= sup <= 1.0

    def test_huge_state_overflows_in_silence(self):
        # finite states too large to square give inf, without a warning
        basis = SineBasis(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = basis.norms(np.full((2, 4), 1e200))
        assert np.isinf(got[:, :2]).all()
        sup = np.max(np.abs(np.full((2, 4), 1e200) @ basis._transform), axis=-1)
        assert np.isfinite(got[:, 2]).all()
        assert got[:, 2].tobytes() == sup.tobytes()


def test_invalid_basis_size():
    with pytest.raises(ValueError):
        SineBasis(0)


@pytest.mark.parametrize("n_modes", [2.5, 0.5, float("nan"), float("inf"), "4"])
def test_non_integral_basis_size(n_modes):
    with pytest.raises(ValueError, match="n_modes"):
        SineBasis(n_modes)
    assert SineBasis(4.0).n_modes == 4
