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
    run_trajectory,
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

record = run_trajectory(cfg, plan, sample=0,
                        snapshot_times=[0.0, 0.0625, 0.25, 1.0])

print("L2 norm of the state along the path:")
for t, coeffs in sorted(record.snapshots.items()):
    print(f"  t={t:5.2f}  |X|_L2 = {np.linalg.norm(coeffs):.4f}")

print(f"\nrunning monitors over all steps:")
print(f"  max |X|_L2  = {record.max_l2:.4f}")
print(f"  max |X|_L4  = {record.max_l4:.4f}")
print(f"  max sup|X|  = {record.max_sup:.4f}")

profile = basis.to_physical(record.endpoint)
mid = slice(24, 40)
print(f"\nendpoint values at the middle nodes (phase +1 plateau):")
print("  " + " ".join(f"{v:+.2f}" for v in profile[mid]))
print(f"endpoint nodal range: [{profile.min():+.3f}, {profile.max():+.3f}]")
