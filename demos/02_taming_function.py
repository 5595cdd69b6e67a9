"""The tamed reaction term and the step-size admissibility condition.

The cubic drift f(v) = v - v^3 grows too fast for a plain explicit scheme
once it is amplified by 1/epsilon.  The tamed variant

    f_tau(v) = f(v) / (1 + beta tau^theta |v|^((2q-2)/alpha))^alpha

never exceeds f in magnitude, keeps its zeros (the physical equilibria
+-1), and converges back to f as tau -> 0.  A scheme run is admissible
for the theory when 2 c3^2 tau^(1-theta alpha) <= c0 beta^alpha epsilon,
with the constants certified numerically from the drift.
"""

import numpy as np

from tamedspde import (
    ALLEN_CAHN,
    TamingParams,
    derive_growth_constants,
    f_eval,
    f_tau_eval,
    step_size_condition,
)

dc = derive_growth_constants(ALLEN_CAHN)
print("certified drift constants:")
print(f"  L_f={dc.L_f:.3f}  c0={dc.c0}  c1={dc.c1}  c2={dc.c2:.4f}  "
      f"c3={dc.c3}  c4={dc.c4}  c5={dc.c5}")

# the taming triple; the step size tau is the scheme's and is passed in
params = TamingParams(alpha=1.0, beta=5.0, theta=0.5)

print("\ntaming at v = 2 (f(2) = -6) for shrinking step sizes:")
for level in (4, 6, 8, 10, 12):
    ftau = f_tau_eval(ALLEN_CAHN, params, 2.0**-level, 2.0)
    print(f"  tau=2^-{level:<2d}  f_tau(2) = {ftau:9.5f}")

v = np.linspace(-3, 3, 7)
print("\n  v        f(v)      f_tau(v) at tau = 2^-10")
for vi, fi, ti in zip(v, f_eval(ALLEN_CAHN, v),
                      f_tau_eval(ALLEN_CAHN, params, 2.0**-10, v)):
    print(f"  {vi:5.1f} {fi:10.3f} {ti:10.3f}")

print("\nadmissibility of the step-size condition at epsilon = 0.01:")
print("  beta   tau        verdict      ratio")
for beta in (5.0, 100.0):
    for level in (5, 8, 10, 12):
        tau = 2.0**-level
        verdict = step_size_condition(
            dc, TamingParams(alpha=1.0, beta=beta, theta=0.5), tau, 0.01
        )
        word = "admissible" if verdict.admissible else "violated"
        print(f"  {beta:5.0f}  2^-{level:<6d} {word:12s} {verdict.ratio:8.3f}")
print("\nwith beta^alpha = 1/epsilon (beta=100), every step size above is "
      "admissible;")
print("with beta = 5 the coarser steps violate the sufficient condition "
      "but still run stably.")
