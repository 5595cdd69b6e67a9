"""Counter-addressed space-time white noise and coarse/fine coupling.

Per mode, one fine step of size h needs the jointly Gaussian pair of the
plain Brownian increment and the stochastic-convolution increment.  Every
pair is a pure function of (master seed, sample, mode, step), so any two
runs that look at the same indices see the same numbers, regardless of
batching or threads.  Coarse steps aggregate the fine convolution
increments with semigroup weights, which couples runs at different step
sizes to one underlying path.
"""

import numpy as np

from tamedspde import (
    NoisePlan,
    SineBasis,
    coarse_convolution_increment,
    conv_dw_covariance,
    conv_variance,
    sample_increment_pair,
)
from tamedspde.noise import increment_factors, standard_pairs

basis = SineBasis(64)
plan = NoisePlan(master_seed=2025, fine_level=10)
h = plan.fine_step_size(1.0)

pair = sample_increment_pair(plan, basis.eigenvalues, h, sample=0, mode=1, step=0)
again = sample_increment_pair(plan, basis.eigenvalues, h, sample=0, mode=1, step=0)
print(f"pair at (sample 0, mode 1, step 0): dW={pair.dW:+.6f} conv={pair.conv:+.6f}")
print(f"same indices, second call:          dW={again.dW:+.6f} conv={again.conv:+.6f}")

lam = basis.eigenvalue(1)
print(f"\nclosed-form law at mode 1, h = 2^-10:")
print(f"  Var(dW)   = {h:.6e}")
print(f"  Var(conv) = {conv_variance(lam, h):.6e}")
print(f"  Cov       = {conv_dw_covariance(lam, h):.6e}")

n = 50_000
# the standard-normal pair of mode 1 at step 0, sample by sample
z1, z2 = np.array([[z[0, 0] for z in standard_pairs(plan, s, 0, 1, 64)]
                   for s in range(n)]).T
sqrt_h, l21, l22 = increment_factors(basis.eigenvalues, h)
dw = sqrt_h * z1
conv = l21[0] * z1 + l22[0] * z2
print(f"\nsample law over {n} draws:")
print(f"  Var(dW)   = {np.var(dw):.6e}")
print(f"  Var(conv) = {np.var(conv):.6e}")
print(f"  Cov       = {np.mean(dw * conv) - dw.mean() * conv.mean():.6e}")

# a coarse step of ratio 2 consumes exactly its two fine increments
fine0 = sample_increment_pair(plan, basis.eigenvalues, h, 0, 1, 0).conv
fine1 = sample_increment_pair(plan, basis.eigenvalues, h, 0, 1, 1).conv
coarse = coarse_convolution_increment(plan, basis.eigenvalues, h, 0, 1, 0, 2)
manual = np.exp(-lam * h) * fine0 + fine1
print(f"\ncoarse increment (ratio 2):  {coarse:+.8f}")
print(f"weighted fine composition:   {manual:+.8f}")
print(f"identical: {coarse == manual}")
