"""Desk-scale weak-convergence study.

The weak error at the horizon is the difference in expectation of the
bounded step observable sin(floor(10 |X|)/10) between a tamed run and a
semi-implicit reference on a finer grid, estimated with coupled noise so
the Monte-Carlo variance of the difference stays tiny at small sample
counts.  This desk-scale version (200 samples, reference at 2^-12) runs
in well under a minute; the full-scale experiment lives behind
`tamedspde converge --preset paper7-beta5`.
"""

from tamedspde import (
    ALLEN_CAHN,
    NoisePlan,
    SchemeConfig,
    SchemeKind,
    SineBasis,
    StepTestFunction,
    TamingParams,
    derive_growth_constants,
    fit_convergence_rate,
    weak_error_table,
)

basis = SineBasis(64)
epsilon = 0.01
horizon = 1.0
fine_level = 12
levels = (8, 9, 10, 11)

# one taming triple serves every level: each run tames at its own tau
taming = TamingParams(alpha=1.0, beta=5.0, theta=0.5)

def tamed(level):
    return SchemeConfig(
        epsilon=epsilon, horizon=horizon, level=level, basis=basis,
        drift=ALLEN_CAHN, taming=taming,
    )

# the reference steps on the fine grid itself: tau = horizon / 2^fine_level
reference = SchemeConfig(
    epsilon=epsilon, horizon=horizon, level=fine_level,
    basis=basis, drift=ALLEN_CAHN, kind=SchemeKind.SEMI_IMPLICIT_REFERENCE,
)

# one group of schemes gives one table; more groups share the sweep
[table] = weak_error_table(
    [[tamed(k) for k in levels]], reference,
    NoisePlan(master_seed=20250811, fine_level=fine_level),
    n_samples=200,
    phi=StepTestFunction(),
    constants=derive_growth_constants(ALLEN_CAHN),
)

print("level  tau       weak error   95% halfwidth  admissible")
for row in table.rows:
    print(f"  {row.level:<4d} 2^-{row.level:<5d} {row.weak_error:10.5f}"
          f"   {row.mc_halfwidth:10.5f}   {row.admissible}")

fit = fit_convergence_rate(table)
print(f"\nfitted slope of log2(error) vs log2(tau): {fit.slope:.3f}")
print("(the theory guarantees any order below 1/2; halving tau should "
      "shrink the error by about sqrt(2))")
