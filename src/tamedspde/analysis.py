"""Observables and experiment machinery: the step test function, coupled
weak-error estimation, convergence-rate fits, moment monitors, interface
profiles, and the numerical property suite.

Weak errors are differences of test-function expectations between a
scheme and a reference run.  The default estimator couples both runs on
the same noise path, which leaves the estimated quantity unchanged while
shrinking the Monte-Carlo variance of the difference by orders of
magnitude at the sample counts used here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import drift as drift_mod
from .drift import DriftConstants, DriftSpec, StepSizeVerdict, ALLEN_CAHN
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
    "PropertyReport",
    "weak_errors_shared_reference",
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
    'l2' takes the function-space norm of the coefficients (a factor
    sqrt(N+1) smaller, so the step bins resolve far less of the
    distribution); 'sup' takes the nodal maximum.
    """

    norm_kind: str = "nodal"

    def __post_init__(self):
        if self.norm_kind not in ("l2", "sup", "nodal"):
            raise ValueError(f"unsupported norm kind {self.norm_kind!r}")

    def radius(self, basis: SineBasis, coeffs: np.ndarray) -> np.ndarray:
        if self.norm_kind == "l2":          # Parseval: the coefficient norm
            return np.linalg.norm(coeffs, axis=-1)
        if self.norm_kind == "nodal":
            return np.linalg.norm(basis.to_physical(coeffs), axis=-1)
        return basis.norms(coeffs)[..., 2]

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
    """Ensemble norm means on a time grid, plus their maxima over time."""

    times: np.ndarray
    mean_l2_sq: np.ndarray
    mean_l4_4: np.ndarray
    mean_sup: np.ndarray

    @property
    def max_mean_l2_sq(self) -> float:
        return float(np.max(self.mean_l2_sq))

    @property
    def max_mean_l4_4(self) -> float:
        return float(np.max(self.mean_l4_4))

    @property
    def max_mean_sup(self) -> float:
        return float(np.max(self.mean_sup))


@dataclass
class ProfileSet:
    """Nodewise ensemble-mean physical profiles at requested times."""

    times: np.ndarray
    node_x: np.ndarray
    mean_values: np.ndarray  # (n_times, N)


def weak_errors_shared_reference(
    schemes: Sequence[SchemeConfig],
    reference: SchemeConfig,
    plan: NoisePlan,
    n_samples: int,
    phi: StepTestFunction,
    *,
    coupled: bool = True,
    threads: int = 1,
) -> tuple[list[float], list[float]]:
    """|E phi(scheme endpoint) - E phi(reference endpoint)| of every
    scheme against one reference run, each with a 95% Monte-Carlo
    halfwidth.

    Coupled mode advances all schemes and the reference through a single
    pass over the shared noise path, so the reference is integrated once,
    and estimates the mean of each per-sample difference.  Uncoupled mode
    gives every run its own seed and combines the two sample variances.
    """
    basis = reference.basis
    if coupled:
        outputs, _ = sweep_ensemble(
            list(schemes) + [reference], plan, n_samples, threads=threads
        )
        phi_ref = phi(basis, outputs[-1].endpoints)
        errors, halfwidths = [], []
        for out in outputs[:-1]:
            delta = phi(basis, out.endpoints) - phi_ref
            errors.append(float(abs(delta.mean())))
            halfwidths.append(float(1.96 * delta.std(ddof=1) / np.sqrt(n_samples)))
        return errors, halfwidths
    ref_out, _ = sweep_ensemble(
        [reference], plan.spawn(0), n_samples, threads=threads
    )
    phi_ref = phi(basis, ref_out[0].endpoints)
    errors, halfwidths = [], []
    for i, cfg in enumerate(schemes):
        out, _ = sweep_ensemble([cfg], plan.spawn(i + 1), n_samples,
                                threads=threads)
        vals = phi(basis, out[0].endpoints)
        errors.append(float(abs(vals.mean() - phi_ref.mean())))
        halfwidths.append(float(
            1.96 * np.sqrt((vals.var(ddof=1) + phi_ref.var(ddof=1)) / n_samples)
        ))
    return errors, halfwidths


def _error_table(
    schemes: Sequence[SchemeConfig],
    errors: Sequence[float],
    halfwidths: Sequence[float],
    n_samples: int,
    constants: DriftConstants | None,
) -> ErrorTable:
    """One row per scheme: its level log2(n_steps) and its step-size
    admissibility verdict from ``constants`` at the scheme's own epsilon
    (admissible with a NaN ratio without them or for an untamed scheme)."""
    rows = []
    for cfg, err, hw in zip(schemes, errors, halfwidths):
        if constants is not None and cfg.taming is not None:
            verdict = drift_mod.step_size_condition(constants, cfg.taming,
                                                    cfg.tau, cfg.epsilon)
        else:
            verdict = StepSizeVerdict(True, np.nan)
        rows.append(ErrorRow(
            level=int(round(np.log2(cfg.n_steps))),
            tau=cfg.tau,
            weak_error=err,
            mc_halfwidth=hw,
            n_samples=n_samples,
            admissible=verdict.admissible,
            admissibility_ratio=verdict.ratio,
        ))
    return ErrorTable(rows=rows)


def weak_error_table(
    schemes: Sequence[SchemeConfig],
    reference: SchemeConfig,
    plan: NoisePlan,
    n_samples: int,
    phi: StepTestFunction,
    constants: DriftConstants | None = None,
    *,
    coupled: bool = True,
    threads: int = 1,
) -> ErrorTable:
    """``weak_errors_shared_reference`` as a table, one row per scheme.

    Each row carries the step-size admissibility verdict computed from
    ``constants`` (when provided) for transparency.
    """
    errors, halfwidths = weak_errors_shared_reference(
        schemes, reference, plan, n_samples, phi, coupled=coupled,
        threads=threads,
    )
    return _error_table(schemes, errors, halfwidths, n_samples, constants)


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
    time_grid: Sequence[float],
    *,
    threads: int = 1,
    x0: np.ndarray | None = None,
) -> MomentReport:
    """Ensemble means of squared-L2, fourth-power-L4, and sup norms.

    The sweep reduces each snapshot to the per-sample norms of
    ``SineBasis.norms`` as it goes, so it stores (samples, 3) values per
    time instead of (samples, modes) states; each mean is taken over one
    norm's (samples,) column.
    """
    times = np.asarray(sorted(time_grid), dtype=np.float64)
    outputs, _ = sweep_ensemble(
        [cfg], plan, n_samples, snapshot_times=[list(times)],
        snapshot_fn=cfg.basis.norms,
        threads=threads, x0=x0,
    )
    snaps = [outputs[0].snapshots[float(t)] for t in times]
    l2sq, l44, sup = (np.array([np.mean(s[:, k]) for s in snaps])
                      for k in range(3))
    return MomentReport(times=times, mean_l2_sq=l2sq, mean_l4_4=l44, mean_sup=sup)


def interface_profile(
    schemes: Sequence[SchemeConfig],
    plan: NoisePlan,
    n_samples: int,
    times: Sequence[float],
    *,
    threads: int = 1,
    x0: np.ndarray | None = None,
) -> list[ProfileSet]:
    """Nodewise ensemble mean of the physical solution at each time, one
    profile set per scheme, all from one sweep over the shared noise."""
    times_arr = np.asarray(sorted(times), dtype=np.float64)
    outputs, _ = sweep_ensemble(
        schemes, plan, n_samples,
        snapshot_times=[list(times_arr)] * len(schemes),
        threads=threads, x0=x0,
    )
    basis = schemes[0].basis
    profiles = []
    for out in outputs:
        mean_values = np.empty((len(times_arr), basis.n_modes))
        for i, t in enumerate(times_arr):
            mean_values[i] = basis.to_physical(out.snapshots[float(t)]).mean(axis=0)
        profiles.append(ProfileSet(times=times_arr, node_x=basis.grid.copy(),
                                   mean_values=mean_values))
    return profiles


@dataclass
class PropertyReport:
    """Aggregated outcome of the numerical invariant checks."""

    checks: list[drift_mod.CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


@np.errstate(over="ignore", invalid="ignore")
def property_suite(
    drift: DriftSpec = ALLEN_CAHN,
    seed: int = 20260811,
    n: int = 100_000,
) -> PropertyReport:
    """Run the drift invariant checks with a fixed seed.

    Failures are report content, not exceptions; counterexamples are
    recorded verbatim.  An extreme drift overflows silently: a check
    whose worst margin is inf or NaN fails.  The pass/fail status is
    insensitive to the seed because the inequalities hold pointwise, not
    just on average.
    """
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31, 3)
    checks = [
        drift_mod.check_taming_domination(drift, n=n, seed=int(seeds[0])),
        drift_mod.check_taming_gap(drift, n=n, seed=int(seeds[1])),
        drift_mod.check_one_sided_delta_derivative(drift),
        drift_mod.check_delta_derivative_growth(drift),
        drift_mod.check_power_mean_inequality(n=n, seed=int(seeds[2])),
    ]
    return PropertyReport(checks=checks)
