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

from tamedspde import NoisePlan, SineBasis, conv_dw_covariance, conv_variance
from tamedspde.noise import IncrementStream

basis = SineBasis(64)
plan = NoisePlan(master_seed=2025, fine_level=10)
h = plan.fine_step_size(1.0)


def first_steps(samples, n_steps):
    """(dW, conv) of fine steps 0..n_steps-1, each (steps, samples, modes)."""
    return IncrementStream(plan, np.asarray(samples), basis.eigenvalues, h,
                           n_steps).next_window()


dw, conv = first_steps([0, 1], 2)
alone_dw, alone_conv = first_steps([0], 2)
print(f"pair at (sample 0, mode 1, step 0): dW={dw[0, 0, 0]:+.6f} "
      f"conv={conv[0, 0, 0]:+.6f}")
print(f"sample 0 drawn on its own:          dW={alone_dw[0, 0, 0]:+.6f} "
      f"conv={alone_conv[0, 0, 0]:+.6f}")

lam = basis.eigenvalue(1)
print(f"\nclosed-form law at mode 1, h = 2^-10:")
print(f"  Var(dW)   = {h:.6e}")
print(f"  Var(conv) = {conv_variance(lam, h):.6e}")
print(f"  Cov       = {conv_dw_covariance(lam, h):.6e}")

n = 50_000
# mode 1 at step 0, over n samples drawn in batches of 1000
pairs = [first_steps(range(lo, lo + 1000), 1) for lo in range(0, n, 1000)]
dw1 = np.concatenate([d[0, :, 0] for d, _ in pairs])
conv1 = np.concatenate([c[0, :, 0] for _, c in pairs])
print(f"\nsample law over {n} draws:")
print(f"  Var(dW)   = {np.var(dw1):.6e}")
print(f"  Var(conv) = {np.var(conv1):.6e}")
print(f"  Cov       = {np.mean(dw1 * conv1) - dw1.mean() * conv1.mean():.6e}")

# a coarse step of ratio 2 consumes exactly its two fine increments, by
# the recursion acc <- e^{-lambda h} acc + conv_k the sweep runs
decay = np.exp(-lam * h)
coarse = 0.0
for k in range(2):
    coarse = decay * coarse + conv[k, 0, 0]
manual = decay * conv[0, 0, 0] + conv[1, 0, 0]
print(f"\ncoarse increment (ratio 2):  {coarse:+.8f}")
print(f"weighted fine composition:   {manual:+.8f}")
print(f"identical: {coarse == manual}")
