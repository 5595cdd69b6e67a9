"""Sine-spectral representation of L2(0, 1) with Dirichlet boundary conditions.

The state space is spanned by the orthonormal eigenfunctions
``e_j(x) = sqrt(2) sin(j pi x)`` of the negative Dirichlet Laplacian on
(0, 1), with eigenvalues ``lambda_j = (j pi)^2``.  A field is represented
either by its coefficient vector against ``e_j`` (spectral side) or by its
values at the N equispaced interior nodes ``x_i = i / (N + 1)`` (physical
side).  All functions accept arrays whose *last* axis indexes modes or
nodes, so batches of fields work transparently.

The two representations are exactly inverse to each other thanks to the
discrete orthogonality ``sum_i sin(j pi x_i) sin(k pi x_i) = (N+1)/2
delta_jk``; the transform matrix is an involution up to the factor N + 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SineBasis", "default_initial"]


class SineBasis:
    """Dirichlet sine basis with ``n_modes`` modes and collocation nodes.

    Attributes
    ----------
    n_modes : int
        Number of resolved modes N.
    eigenvalues : ndarray, shape (N,)
        ``lambda_j = (j pi)^2`` for j = 1..N, strictly increasing.
    grid : ndarray, shape (N,)
        Interior nodes ``x_i = i / (N + 1)``.
    """

    def __init__(self, n_modes: int):
        try:
            ok = int(n_modes) == n_modes and n_modes >= 1
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"n_modes must be an integer >= 1, got {n_modes!r}")
        self.n_modes = int(n_modes)
        j = np.arange(1, self.n_modes + 1, dtype=np.float64)
        self.eigenvalues = (j * np.pi) ** 2
        self.grid = j / (self.n_modes + 1)
        # symmetric transform matrix M[j-1, i-1] = sqrt(2) sin(j pi x_i);
        # M @ M = (N + 1) I, so one matrix serves both directions
        self._transform = np.sqrt(2.0) * np.sin(np.pi * np.outer(j, self.grid))

    def __repr__(self) -> str:
        return f"SineBasis(n_modes={self.n_modes})"

    def eigenvalue(self, j: int) -> float:
        """Eigenvalue ``(j pi)^2`` of mode j (1-indexed)."""
        if not 1 <= j <= self.n_modes:
            raise IndexError(f"mode index {j} outside 1..{self.n_modes}")
        return float(self.eigenvalues[j - 1])

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values ``v_i = sum_j c_j sqrt(2) sin(j pi x_i)``."""
        return np.asarray(coeffs, dtype=np.float64) @ self._transform

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Coefficients ``c_j = sqrt(2)/(N+1) sum_i v_i sin(j pi x_i)``."""
        values = np.asarray(values, dtype=np.float64)
        return values @ self._transform / (self.n_modes + 1)

    def semigroup_factors(self, t: float) -> np.ndarray:
        """Per-mode heat-semigroup multipliers ``exp(-lambda_j t)``."""
        if t < 0:
            raise ValueError(f"semigroup time must be >= 0, got {t}")
        return np.exp(-self.eigenvalues * t)

    def semigroup_apply(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """Apply ``E(t) = exp(-A t)`` mode-wise; a contraction for t >= 0."""
        return np.asarray(coeffs, dtype=np.float64) * self.semigroup_factors(t)

    def norms(self, coeffs: np.ndarray) -> np.ndarray:
        """Per-field ``(sum c^2, sum phi^4 / (N+1), max |phi|)`` of the
        coefficients ``c`` with nodal values ``phi``, along a last axis of
        length 3: the squared L2 norm (Parseval), the fourth power of the
        L4 norm by the rectangle rule and the sup norm on the nodes.

        A (B, N) batch takes a matrix product; a 1-D array or a one-row
        batch takes BLAS's matrix-vector path, whose last bit can differ
        from a row of the product.  A finite state too large to square
        gives ``inf`` without a warning.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        with np.errstate(over="ignore"):
            phys = self.to_physical(coeffs)
            return np.stack([
                np.sum(coeffs**2, axis=-1),
                np.sum(phys**4, axis=-1) / (self.n_modes + 1),
                np.max(np.abs(phys), axis=-1),
            ], axis=-1)


def default_initial(basis: SineBasis) -> np.ndarray:
    """Coefficients of the standard initial profile ``sin(pi x)``.

    ``sin(pi x) = (1/sqrt(2)) e_1(x)``, so only the first mode is set.
    """
    coeffs = np.zeros(basis.n_modes)
    coeffs[0] = 1.0 / np.sqrt(2.0)
    return coeffs
