"""Mean interface profiles as the interface sharpens.

Averaging the solution over many noise realizations shows the phase
structure: from sin(pi x) the solution climbs to the +1 plateau with
boundary layers whose width scales like sqrt(epsilon).  Smaller epsilon
gives visibly steeper walls.  The full-scale version is
`tamedspde interface --preset interface-eps3`.
"""

import numpy as np

from tamedspde import (
    ALLEN_CAHN,
    NoisePlan,
    SchemeConfig,
    SineBasis,
    TamingParams,
    interface_profile,
)

basis = SineBasis(64)
times = [0.0, 0.25, 1.0]

# the sharper interface needs the smaller step: at epsilon = 0.001 the
# tamed map only contracts the +-1 plateaus for tau <= ~2^-10
runs = ((0.01, 8), (0.001, 10))
schemes = [
    SchemeConfig(
        epsilon=epsilon, tau=2.0**-level, n_steps=2**level, basis=basis,
        drift=ALLEN_CAHN,
        taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5),
    )
    for epsilon, level in runs
]
# one sweep over one noise path on the finest grid drives both runs
plan = NoisePlan(master_seed=11, fine_level=10)
profiles = interface_profile(schemes, plan, n_samples=100, times=times)

for (epsilon, _), profile in zip(runs, profiles):
    print(f"\nepsilon = {epsilon}")
    print("x:      " + " ".join(f"{x:5.2f}" for x in profile.node_x[::8]))
    for ti, t in enumerate(profile.times):
        vals = profile.mean_values[ti, ::8]
        print(f"t={t:4.2f}: " + " ".join(f"{v:+5.2f}" for v in vals))
    half_rise = np.argmax(profile.mean_values[-1] > 0.9)
    print(f"first node above 0.9 at t=1: x = {profile.node_x[half_rise]:.3f} "
          f"(boundary-layer width shrinks with epsilon)")
