"""One tamed exponential Euler path of the stochastic Allen-Cahn equation.

Starting from sin(pi x) with interface width epsilon = 0.01, the reaction
term pushes the solution toward the stable phase +1 while the space-time
white noise keeps shaking it; the endpoint is a noisy plateau near +1
pinned to zero at the boundary.
"""

import numpy as np

from tamedspde import (
    ALLEN_CAHN,
    NoisePlan,
    SchemeConfig,
    SineBasis,
    TamingParams,
    sweep_ensemble,
)

basis = SineBasis(64)
level = 10
cfg = SchemeConfig(
    epsilon=0.01,
    tau=2.0**-level,
    n_steps=2**level,
    basis=basis,
    drift=ALLEN_CAHN,
    # tamed at the scheme's own step size tau
    taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5),
)
plan = NoisePlan(master_seed=7, fine_level=level)

# one sample of the ensemble, with a snapshot at every step, t = 0 included
times = [m * cfg.tau for m in range(cfg.n_steps + 1)]
(out,), _ = sweep_ensemble([cfg], plan, [0], snapshot_times=[times])
path = np.stack([out.snapshots[t][0] for t in times])    # (steps + 1, modes)

print("L2 norm of the state along the path:")
for t in (0.0, 0.0625, 0.25, 1.0):
    print(f"  t={t:5.2f}  |X|_L2 = {np.sqrt(basis.norms(out.snapshots[t][0])[0]):.4f}")

# (|X|_L2^2, |X|_L4^4, sup|X|) at every step, maximised over time
l2sq, l44, sup = basis.norms(path).max(axis=0)
print(f"\nrunning monitors over all steps:")
print(f"  max |X|_L2  = {np.sqrt(l2sq):.4f}")
print(f"  max |X|_L4  = {l44**0.25:.4f}")
print(f"  max sup|X|  = {sup:.4f}")

profile = basis.to_physical(out.endpoints[0])
mid = slice(24, 40)
print(f"\nendpoint values at the middle nodes (phase +1 plateau):")
print("  " + " ".join(f"{v:+.2f}" for v in profile[mid]))
print(f"endpoint nodal range: [{profile.min():+.3f}, {profile.max():+.3f}]")
