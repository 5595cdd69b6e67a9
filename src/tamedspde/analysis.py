"""Observables and experiment machinery: the step test function, coupled
weak-error estimation, convergence-rate fits, moment monitors, interface
profiles, and the numerical property suite.

Weak errors are differences of test-function expectations between a
scheme and a reference run.  The default estimator couples both runs on
the same noise path, which leaves the estimated quantity unchanged while
shrinking the Monte-Carlo variance of the difference by orders of
magnitude at the sample counts used here.  Every experiment reduces
inside the sweep, its observable passed as the ``snapshot_fn``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from . import drift as drift_mod
from .drift import DriftConstants, DriftSpec, ALLEN_CAHN
from .engine import SchemeConfig, sweep_ensemble
from .noise import NoisePlan
from .spectral import SineBasis

__all__ = [
    "StepTestFunction",
    "ErrorRow",
    "ErrorTable",
    "RateFit",
    "MomentReport",
    "ProfileSet",
    "weak_error_table",
    "fit_convergence_rate",
    "moment_sup_estimate",
    "interface_profile",
    "property_suite",
]


@dataclass(frozen=True)
class StepTestFunction:
    """Bounded step observable ``sin(floor(10 ||X||) / 10)``.

    Piecewise constant on norm bins of width 0.1 and bounded by 1, so it
    belongs to the test class whose supremum defines the total-variation
    distance.  ``norm_kind`` selects how ||X|| is computed: 'nodal'
    (default) takes the unnormalized euclidean norm of the nodal values,
    which is what reproduces the reference experiment's error magnitudes;
    'l2' takes the function-space norm of the coefficients, a factor
    sqrt(N+1) smaller, so the step bins resolve far less of the distribution.
    """

    norm_kind: str = "nodal"

    def __post_init__(self):
        if self.norm_kind not in ("l2", "nodal"):
            raise ValueError(f"unsupported norm kind {self.norm_kind!r}")

    def radius(self, basis: SineBasis, coeffs: np.ndarray) -> np.ndarray:
        if self.norm_kind == "l2":          # Parseval: the coefficient norm
            return np.linalg.norm(coeffs, axis=-1)
        return np.linalg.norm(basis.to_physical(coeffs), axis=-1)

    def __call__(self, basis: SineBasis, coeffs: np.ndarray) -> np.ndarray:
        return np.sin(np.floor(10.0 * self.radius(basis, coeffs)) / 10.0)


@dataclass(frozen=True)
class ErrorRow:
    level: int
    tau: float
    weak_error: float
    mc_halfwidth: float
    n_samples: int
    admissible: bool
    admissibility_ratio: float


@dataclass
class ErrorTable:
    """Weak errors per step size, one row each, coarsest first: the rows'
    tau must strictly decrease."""

    rows: list[ErrorRow]

    def __post_init__(self):
        taus = [r.tau for r in self.rows]
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise ValueError("rows must have strictly decreasing tau")
        if not all(np.isfinite(r.weak_error) for r in self.rows):
            raise ValueError("weak errors must be finite")


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log2(error) against log2(tau)."""

    slope: float
    intercept: float
    residual: float


@dataclass
class MomentReport:
    """Ensemble norm means on a time grid."""

    times: np.ndarray
    mean_l2_sq: np.ndarray
    mean_l4_4: np.ndarray
    mean_sup: np.ndarray


@dataclass
class ProfileSet:
    """Nodewise ensemble-mean physical profiles at requested times, on the
    nodes ``basis.grid`` of the schemes' basis."""

    times: np.ndarray
    mean_values: np.ndarray  # (n_times, N)


def weak_error_table(
    groups: Sequence[Sequence[SchemeConfig]],
    reference: SchemeConfig,
    plan: NoisePlan,
    n_samples: int,
    phi: StepTestFunction,
    constants: DriftConstants | None = None,
    *,
    coupled: bool = True,
    threads: int = 1,
) -> list[ErrorTable]:
    """One table per group of schemes, one row per scheme: the weak error
    |E phi(scheme endpoint) - E phi(reference endpoint)| against one
    reference run, its 95% Monte-Carlo halfwidth, the scheme's level
    and the step-size admissibility verdict from
    ``constants`` at the scheme's own epsilon (admissible with a NaN ratio
    without them or for an untamed scheme).

    Coupled mode advances every scheme of every group, then the
    reference, through a single pass over the shared noise path, so the
    reference is integrated once, and estimates the mean of each
    per-sample difference.  Uncoupled mode runs the reference on
    ``plan.spawn(0)`` and scheme i, counted across all groups, on
    ``plan.spawn(i + 1)``, and combines the two sample variances.

    A run's endpoint is its last snapshot, and phi is the sweep's
    ``snapshot_fn``: each run keeps a (samples,) vector, not endpoints.
    """
    schemes = [cfg for group in groups for cfg in group]
    observe = functools.partial(phi, reference.basis)
    if coupled:
        outputs = sweep_ensemble(schemes + [reference], plan, n_samples,
                                 snapshot_fn=observe, threads=threads)
        phi_ref = outputs.pop()[-1]
    else:
        phi_ref = sweep_ensemble([reference], plan.spawn(0), n_samples,
                                 snapshot_fn=observe, threads=threads)[0][-1]
        outputs = [sweep_ensemble([cfg], plan.spawn(i + 1), n_samples,
                                  snapshot_fn=observe, threads=threads)[0]
                   for i, cfg in enumerate(schemes)]
    rows = []
    for cfg, out in zip(schemes, outputs):
        vals = out[-1]
        if coupled:
            delta = vals - phi_ref
            err = float(abs(delta.mean()))
            hw = float(1.96 * delta.std(ddof=1) / np.sqrt(n_samples))
        else:
            err = float(abs(vals.mean() - phi_ref.mean()))
            hw = float(1.96 * np.sqrt(
                (vals.var(ddof=1) + phi_ref.var(ddof=1)) / n_samples))
        ratio, admissible = np.nan, True
        if constants is not None and cfg.taming is not None:
            ratio = drift_mod.step_size_condition(constants, cfg.taming,
                                                  cfg.tau, cfg.epsilon)
            admissible = bool(ratio <= 1.0)  # not when NaN
        rows.append(ErrorRow(
            level=cfg.level,
            tau=cfg.tau,
            weak_error=err,
            mc_halfwidth=hw,
            n_samples=n_samples,
            admissible=admissible,
            admissibility_ratio=ratio,
        ))
    row_iter = iter(rows)
    return [ErrorTable(rows=list(islice(row_iter, len(group))))
            for group in groups]


def fit_convergence_rate(table: ErrorTable) -> RateFit:
    """Slope of log2(weak error) against log2(tau) by least squares.  It
    needs >= 3 rows and every error > 0, else raises ValueError."""
    errs = np.array([r.weak_error for r in table.rows])
    if len(errs) < 3:
        raise ValueError(f"rate fit refused: needs >= 3 step sizes, got {len(errs)}")
    if np.any(errs <= 0):
        raise ValueError(f"rate fit refused: needs every weak error > 0, "
                         f"got {errs.tolist()}")
    x = np.log2([r.tau for r in table.rows])
    y = np.log2(errs)
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return RateFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual=float(resid @ resid),
    )


def moment_sup_estimate(
    cfg: SchemeConfig,
    plan: NoisePlan,
    n_samples: int,
    *,
    threads: int = 1,
) -> MomentReport:
    """Ensemble means of squared-L2, fourth-power-L4, and sup norms at
    every step of ``cfg``, t = 0 and the horizon included.

    Every path starts from ``default_initial``.  The sweep reduces each
    snapshot to the per-sample norms of ``SineBasis.norms`` as it goes, so
    it stores (samples, 3) values per step instead of (samples, modes)
    states; each mean is taken over one norm's (samples,) column.
    """
    [out] = sweep_ensemble(
        [cfg], plan, n_samples, snapshot_steps=[range(cfg.n_steps + 1)],
        snapshot_fn=cfg.basis.norms, threads=threads,
    )
    # per column: one mean over axis 1 of all three sums in another order
    l2sq, l44, sup = (out[:, :, k].mean(axis=1) for k in range(3))
    return MomentReport(times=cfg.tau * np.arange(cfg.n_steps + 1),
                        mean_l2_sq=l2sq, mean_l4_4=l44, mean_sup=sup)


def interface_profile(
    schemes: Sequence[SchemeConfig],
    plan: NoisePlan,
    n_samples: int,
    times: Sequence[float],
    *,
    threads: int = 1,
) -> list[ProfileSet]:
    """Nodewise ensemble mean of the physical solution at each time, one
    profile set per scheme, all from one sweep over the shared noise that
    stores the nodal values (``snapshot_fn=basis.to_physical``)."""
    times_arr = np.asarray(sorted(times), dtype=np.float64)
    steps = [[cfg.step_at(t) for t in times_arr] for cfg in schemes]
    # a repeated time, or two within the grid's tolerance, share one row
    kept = [sorted(set(s)) for s in steps]
    outputs = sweep_ensemble(schemes, plan, n_samples, snapshot_steps=kept,
                             snapshot_fn=schemes[0].basis.to_physical,
                             threads=threads)
    return [ProfileSet(times=times_arr,
                       mean_values=out.mean(axis=1)[[k.index(m) for m in s]])
            for out, s, k in zip(outputs, steps, kept)]


@np.errstate(over="ignore", invalid="ignore")
def property_suite(drift: DriftSpec = ALLEN_CAHN,
                   seed: int = 20260811) -> list[drift_mod.CheckResult]:
    """Run the drift invariant checks, on their one grid, delta family and
    sample count, with a fixed seed; one result each.

    Failures are report content, not exceptions; counterexamples are
    recorded verbatim.  An extreme drift overflows silently: a check
    whose worst margin is inf or NaN fails.  The pass/fail status is
    insensitive to the seed because the inequalities hold pointwise, not
    just on average.
    """
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31, 3)
    return [
        drift_mod.check_taming_domination(drift, seed=int(seeds[0])),
        drift_mod.check_taming_gap(drift, seed=int(seeds[1])),
        drift_mod.check_one_sided_delta_derivative(drift),
        drift_mod.check_delta_derivative_growth(drift),
        drift_mod.check_power_mean_inequality(seed=int(seeds[2])),
    ]
