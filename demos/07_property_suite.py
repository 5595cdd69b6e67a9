"""Numerical property suite: the structural facts the scheme relies on.

Each check is an inequality verified pointwise on large random or grid
samples: the tamed drift never exceeds the raw drift (checked on
``f_tau_eval``, the function every sweep calls); the taming gap is
controlled by alpha beta tau^theta |u|^((2q-2)/alpha) |f(u)|; the
regularized drift's derivative admits delta-independent bounds; and the
power inequality behind the discrete Gronwall argument holds for all
sampled exponents.  Failures carry counterexamples verbatim.
"""

from tamedspde import property_suite

report = property_suite()

for check in report.checks:
    state = "pass" if check.passed else "FAIL"
    print(f"{check.name:30s} {state}  n={check.n_samples:<8d} "
          f"worst margin={check.worst:.3g}")
    if not check.passed:
        print(f"  counterexample: {check.counterexample}")

print(f"\nall passed: {report.all_passed}")
