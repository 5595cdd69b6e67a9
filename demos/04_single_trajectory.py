"""One tamed exponential Euler path of the stochastic Allen-Cahn equation.

Starting from sin(pi x) with interface width epsilon = 0.01, the reaction
term pushes the solution toward the stable phase +1 while the space-time
white noise keeps shaking it; the endpoint is a noisy plateau near +1
pinned to zero at the boundary.

The sweep's output is its snapshots: one (steps, samples, modes) array
per run, a row per requested step, and the endpoint is the last row.
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
# 2^level steps of tau = horizon / 2^level
cfg = SchemeConfig(
    epsilon=0.01,
    horizon=1.0,
    level=level,
    basis=basis,
    drift=ALLEN_CAHN,
    # tamed at the scheme's own step size tau
    taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5),
)
plan = NoisePlan(master_seed=7, fine_level=level)

# one sample of the ensemble, with a snapshot at every step, t = 0 included
(out,) = sweep_ensemble([cfg], plan, [0],
                        snapshot_steps=[range(cfg.n_steps + 1)])
path = out[:, 0]                                # (steps + 1, modes)

print("L2 norm of the state along the path:")
for t in (0.0, 0.0625, 0.25, 1.0):
    state = path[cfg.step_at(t)]
    print(f"  t={t:5.2f}  |X|_L2 = {np.sqrt(basis.norms(state)[0]):.4f}")

# (|X|_L2^2, |X|_L4^4, sup|X|) at every step, maximised over time
l2sq, l44, sup = basis.norms(path).max(axis=0)
print(f"\nrunning monitors over all steps:")
print(f"  max |X|_L2  = {np.sqrt(l2sq):.4f}")
print(f"  max |X|_L4  = {l44**0.25:.4f}")
print(f"  max sup|X|  = {sup:.4f}")

profile = basis.to_physical(path[-1])
mid = slice(24, 40)
print(f"\nendpoint values at the middle nodes (phase +1 plateau):")
print("  " + " ".join(f"{v:+.2f}" for v in profile[mid]))
print(f"endpoint nodal range: [{profile.min():+.3f}, {profile.max():+.3f}]")
