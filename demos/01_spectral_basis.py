"""Sine-spectral representation on (0, 1) with Dirichlet boundaries.

A field is a vector of coefficients against the orthonormal eigenfunctions
e_j(x) = sqrt(2) sin(j pi x) of the Dirichlet Laplacian.  This script walks
through the eigenvalues, the exact transform pair between coefficients and
nodal values, Parseval's identity, and the heat semigroup.
"""

import numpy as np

from tamedspde import SineBasis, default_initial

basis = SineBasis(64)

print("First eigenvalues (j pi)^2:")
for j in (1, 2, 3, 8, 64):
    print(f"  lambda_{j:<2d} = {basis.eigenvalues[j - 1]:12.4f}")

# the transform is its own inverse up to the factor N + 1 = 65 on the 64
# interior nodes: nodal values back to coefficients is to_physical / 65
rng = np.random.default_rng(0)
coeffs = rng.standard_normal(64)
roundtrip = basis.to_physical(basis.to_physical(coeffs)) / (basis.n_modes + 1)
print(f"\nround-trip error on a random field: "
      f"{np.max(np.abs(roundtrip - coeffs)):.2e}")

# Parseval: the squared L2 norm of the function, by the rectangle rule on
# the nodes, equals the coefficient sum of squares
nodal_l2sq = np.sum(basis.to_physical(coeffs)**2) / (basis.n_modes + 1)
print(f"Parseval gap: {abs(nodal_l2sq - basis.norms(coeffs)[0]):.2e}")

# initial profile sin(pi x) is the first basis function over sqrt(2)
u0 = default_initial(basis)
values = basis.to_physical(u0)
print(f"\nsin(pi x) nodal representation error: "
      f"{np.max(np.abs(values - np.sin(np.pi * basis.grid))):.2e}")

# the heat semigroup damps mode j by exp(-lambda_j t): after t = 0.1 the
# first mode keeps ~37%, the eighth mode is numerically gone
decayed = u0 * basis.semigroup_factors(0.1)
print(f"mode-1 damping over t=0.1: {decayed[0] / u0[0]:.6f} "
      f"(exact {np.exp(-np.pi**2 * 0.1):.6f})")
print(f"sup-norm after t=1:  "
      f"{basis.norms(u0 * basis.semigroup_factors(1.0))[2]:.3e}")

# the norms of the moment bounds, as (|u|_L2^2, |u|_L4^4, sup|u|)
l2sq, l44, sup = basis.norms(coeffs)
print("\navailable norms on a random field:")
for label, value in (("L2", np.sqrt(l2sq)), ("L4", l44**0.25), ("sup", sup)):
    print(f"  {label:12s} {value:10.4f}")
