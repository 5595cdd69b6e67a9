"""Batch experiment front end.

Subcommands: ``converge`` (weak-error table and rate fit), ``table1``
(weak errors for four taming exponents), ``interface`` (mean interface
profiles), ``moments`` (norm monitors over time), ``verify`` (numerical
property suite).  Every run writes its CSV artifacts, the resolved
configuration, and a manifest sufficient to replay the run; replays are
byte-identical for a fixed (config, master seed, BLAS kernel, numpy SIMD
dispatch), whatever ``--threads`` says.

Exit codes: 0 success, 1 validation or property failure, 2 trajectory
blow-up, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ErrorTable,
    StepTestFunction,
    _error_table,
    fit_convergence_rate,
    interface_profile,
    moment_sup_estimate,
    property_suite,
    weak_error_table,
    weak_errors_shared_reference,
)
from .config import ConfigError, ExperimentConfig, format_float
from .drift import (DriftConstants, DriftDerivationError, DriftSpec,
                    TamingParams, derive_growth_constants)
from .engine import (BlowUpError, SchemeConfig, SchemeKind, _blas_threads,
                     _snapshot_steps)
from .noise import NoisePlan
from .presets import PRESETS, preset
from .spectral import SineBasis

__all__ = ["main"]

_TABLE1_ALPHAS = (1.0, 0.5, 1.0 / 3.0, 0.25)
_TABLE1_COLUMNS = ("err_alpha_1", "err_alpha_1_2", "err_alpha_1_3", "err_alpha_1_4")


def _fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value))


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, command: str, cfg: ExperimentConfig,
                    outputs: list[str], **extra) -> None:
    manifest = {
        "tool": "tamedspde",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg.master_seed,
        "resolved_config": cfg.to_ini(),
        "outputs": sorted(outputs),
        "blas": _blas_threads(),
        **extra,
    }
    _write_json(outdir / "manifest.json", manifest)
    (outdir / "config.resolved.ini").write_text(cfg.to_ini())


def _drift(cfg: ExperimentConfig) -> DriftSpec:
    return DriftSpec(q=cfg.q, leading=cfg.leading, lower=cfg.f0_coeffs)


def _constants(cfg: ExperimentConfig) -> DriftConstants:
    """The drift's certified growth constants; none is a config error."""
    try:
        return derive_growth_constants(_drift(cfg))
    except DriftDerivationError as exc:
        raise ConfigError(f"model.leading: the drift of model.leading and "
                          f"model.f0_coeffs certifies no constants: {exc}") from None


def _output_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, made if missing."""
    outdir = Path(cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _setup(cfg: ExperimentConfig) -> tuple[Path, SineBasis, DriftSpec]:
    """The output directory, made if missing, the basis and the drift."""
    return _output_dir(cfg), SineBasis(cfg.n_modes), _drift(cfg)


def _scheme(cfg: ExperimentConfig, level: int, *, alpha: float | None = None,
            epsilon: float | None = None, basis: SineBasis,
            drift: DriftSpec) -> SchemeConfig:
    return SchemeConfig(
        epsilon=cfg.epsilon if epsilon is None else epsilon,
        tau=cfg.horizon / 2**level,
        n_steps=2**level,
        basis=basis,
        drift=drift,
        taming=TamingParams(alpha=cfg.alpha if alpha is None else alpha,
                            beta=cfg.beta, theta=cfg.theta),
        kind=SchemeKind.TAMED_EXP_EULER,
    )


def _reference(cfg: ExperimentConfig, *, basis: SineBasis,
               drift: DriftSpec) -> SchemeConfig:
    return SchemeConfig(
        epsilon=cfg.epsilon,
        tau=cfg.horizon / 2**cfg.fine_level,
        n_steps=2**cfg.fine_level,
        basis=basis,
        drift=drift,
        kind=SchemeKind.SEMI_IMPLICIT_REFERENCE,
    )


def _admissibility_entries(table: ErrorTable) -> list[dict]:
    return [
        {
            "level": r.level,
            "tau": r.tau,
            "admissible": bool(r.admissible),
            "ratio": None if np.isnan(r.admissibility_ratio)
            else r.admissibility_ratio,
        }
        for r in table.rows
    ]


def cmd_converge(cfg: ExperimentConfig, threads: int) -> int:
    constants = _constants(cfg)
    outdir, basis, drift = _setup(cfg)
    plan = NoisePlan(cfg.master_seed, cfg.fine_level)
    schemes = [_scheme(cfg, k, basis=basis, drift=drift) for k in cfg.tau_levels]
    reference = _reference(cfg, basis=basis, drift=drift)
    table = weak_error_table(
        schemes, reference, plan, cfg.n_samples,
        StepTestFunction(norm_kind=cfg.phi_norm),
        constants, coupled=cfg.coupled, threads=threads,
    )
    header = ("level", "tau", "weak_error", "mc_halfwidth", "n_samples",
              "admissible", "admissibility_ratio")
    _write_csv(outdir / "errors.csv", header, (
        (r.level, r.tau, r.weak_error, r.mc_halfwidth, r.n_samples,
         r.admissible, r.admissibility_ratio) for r in table.rows))
    outputs = ["errors.csv"]
    for row in table.rows:
        print(f"level {row.level}  tau {row.tau:.3e}  weak error "
              f"{row.weak_error:.6f} +- {row.mc_halfwidth:.6f}  "
              f"admissible={row.admissible} (ratio {row.admissibility_ratio:.3g})")
    try:
        fit = fit_convergence_rate(table)
    except ValueError as exc:               # "rate fit refused: <reason>"
        print(exc)
    else:
        _write_json(outdir / "rate_fit.json", {
            "slope": fit.slope, "intercept": fit.intercept,
            "residual": fit.residual, "n_rows": len(table.rows),
        })
        outputs.append("rate_fit.json")
        print(f"fitted convergence slope: {fit.slope:.4f}")
    _write_manifest(outdir, "converge", cfg, outputs,
                    admissibility=_admissibility_entries(table))
    return 0


def cmd_table1(cfg: ExperimentConfig, threads: int) -> int:
    constants = _constants(cfg)
    outdir, basis, drift = _setup(cfg)
    plan = NoisePlan(cfg.master_seed, cfg.fine_level)
    schemes = [
        _scheme(cfg, k, alpha=alpha, basis=basis, drift=drift)
        for alpha in _TABLE1_ALPHAS for k in cfg.tau_levels
    ]
    reference = _reference(cfg, basis=basis, drift=drift)
    errors, halfwidths = weak_errors_shared_reference(
        schemes, reference, plan, cfg.n_samples,
        StepTestFunction(norm_kind=cfg.phi_norm),
        coupled=cfg.coupled, threads=threads,
    )
    n_tau = len(cfg.tau_levels)
    tables = [
        _error_table(schemes[a:a + n_tau], errors[a:a + n_tau],
                     halfwidths[a:a + n_tau], cfg.n_samples, constants)
        for a in range(0, len(schemes), n_tau)
    ]
    header = ("level", "tau") + _TABLE1_COLUMNS
    rows = [
        (row.level, row.tau) + tuple(t.rows[i].weak_error for t in tables)
        for i, row in enumerate(tables[0].rows)
    ]
    _write_csv(outdir / "table1.csv", header, rows)
    fits = {}
    monotone = {}
    for name, alpha, table in zip(_TABLE1_COLUMNS, _TABLE1_ALPHAS, tables):
        col = np.array([r.weak_error for r in table.rows])
        pairs = int(np.sum(col[1:] < col[:-1]))
        monotone[name] = {
            "decreasing_pairs": pairs, "total_pairs": len(col) - 1,
            "flagged": bool(pairs < len(col) - 1),
        }
        with suppress(ValueError):          # a refused fit is left out
            fits[name] = {"alpha": alpha,
                          "slope": fit_convergence_rate(table).slope}
        print(f"alpha={alpha:.4g}: errors "
              + " ".join(f"{e:.5f}" for e in col))
    admissibility = [
        {"alpha": alpha, **entry}
        for alpha, table in zip(_TABLE1_ALPHAS, tables)
        for entry in _admissibility_entries(table)
    ]
    _write_json(outdir / "table1_fits.json", {"fits": fits, "monotone": monotone})
    _write_manifest(outdir, "table1", cfg, ["table1.csv", "table1_fits.json"],
                    admissibility=admissibility)
    return 0


def cmd_interface(cfg: ExperimentConfig, threads: int) -> int:
    basis, drift = SineBasis(cfg.n_modes), _drift(cfg)
    epsilons = cfg.interface_epsilons or (cfg.epsilon,)
    schemes = [_scheme(cfg, cfg.tau_levels[0], epsilon=eps, basis=basis,
                       drift=drift) for eps in epsilons]
    # the profiles step at tau_levels[0] only, so its grid must hold every
    # time; validate cannot ask this of the other commands' configs
    try:
        _snapshot_steps(schemes[0], cfg.interface_times)
    except ValueError as exc:
        raise ConfigError(f"interface.times: {exc}") from None
    names = [f"profiles_eps_{format(eps, 'g')}.csv" for eps in epsilons]
    if clash := [name for name in names if names.count(name) > 1]:
        raise ConfigError(f"interface.epsilons: two epsilons would both "
                          f"write {clash[0]}")
    outdir = _output_dir(cfg)
    # one sweep over the shared noise path gives every epsilon its profiles
    profiles = interface_profile(
        schemes, NoisePlan(cfg.master_seed, cfg.fine_level), cfg.n_samples,
        cfg.interface_times, threads=threads,
    )
    for eps, name, profile in zip(epsilons, names, profiles):
        rows = (
            (t, i + 1, profile.node_x[i], profile.mean_values[ti, i])
            for ti, t in enumerate(profile.times)
            for i in range(basis.n_modes)
        )
        _write_csv(outdir / name, ("time", "node_index", "x", "mean_value"), rows)
        peak = float(np.max(np.abs(profile.mean_values)))
        print(f"epsilon={eps:g}: wrote {name}; max |mean value| = {peak:.4f}")
    _write_manifest(outdir, "interface", cfg, names)
    return 0


def cmd_moments(cfg: ExperimentConfig, threads: int) -> int:
    outdir, basis, drift = _setup(cfg)
    tau = 2.0**-cfg.moments_tau_level
    outputs = []
    maxima = []
    for horizon in cfg.moments_horizons:
        n_steps = int(round(horizon / tau))     # a power of two (validate)
        level = n_steps.bit_length() - 1
        # the scheme's step, n_steps * tau / 2**level, is tau exactly
        scheme = _scheme(replace(cfg, horizon=n_steps * tau), level,
                         basis=basis, drift=drift)
        times = [m * tau for m in range(n_steps + 1)]
        report = moment_sup_estimate(
            scheme, NoisePlan(cfg.master_seed, level), cfg.moments_n_samples,
            times, threads=threads,
        )
        name = f"moments_T_{format(horizon, 'g')}.csv"
        rows = zip(report.times, report.mean_l2_sq, report.mean_l4_4,
                   report.mean_sup)
        _write_csv(outdir / name,
                   ("time", "mean_l2_sq", "mean_l4_4", "mean_sup"), rows)
        outputs.append(name)
        maxima.append({
            "horizon": horizon,
            "max_mean_l2_sq": report.max_mean_l2_sq,
            "max_mean_l4_4": report.max_mean_l4_4,
            "max_mean_sup": report.max_mean_sup,
        })
        print(f"T={horizon:g}: max mean |X|_L2^2 = {report.max_mean_l2_sq:.6f}")
    ratios = [
        {"horizons": [a["horizon"], b["horizon"]],
         "l2_sq_ratio": b["max_mean_l2_sq"] / a["max_mean_l2_sq"]}
        for a, b in zip(maxima, maxima[1:])
    ]
    _write_manifest(outdir, "moments", cfg, outputs, maxima=maxima,
                    growth_ratios=ratios)
    return 0


def cmd_verify(cfg: ExperimentConfig, threads: int) -> int:
    outdir, _, drift = _setup(cfg)
    report = property_suite(drift, seed=cfg.master_seed)
    payload = report.as_dict()
    try:
        payload["constants"] = {**asdict(derive_growth_constants(drift)),
                                "certified": True}
    except ValueError as exc:
        payload["constants"] = {"certified": False, "error": str(exc)}
        payload["all_passed"] = False
    _write_json(outdir / "verify_report.json", payload)
    _write_manifest(outdir, "verify", cfg, ["verify_report.json"])
    for check in payload["checks"]:
        state = "pass" if check["passed"] else "FAIL"
        print(f"{check['name']}: {state} (n={check['n_samples']}, "
              f"worst margin {check['worst']:.3g})")
    if not payload["all_passed"]:
        print("property suite FAILED", file=sys.stderr)
        return 1
    print("property suite passed")
    return 0


_DISPATCH = {
    "converge": cmd_converge,
    "table1": cmd_table1,
    "interface": cmd_interface,
    "moments": cmd_moments,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="named experiment preset")
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (.ini, or a manifest .json)")
    common.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one configuration value (repeatable)")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads, the only parallelism of a run "
                             "(BLAS is held at one thread while sweeps run, "
                             "process-wide); never changes output bytes")
    common.add_argument("--out-dir", metavar="DIR",
                        help="override the output directory")
    parser = argparse.ArgumentParser(
        prog="tamedspde",
        description="Tamed exponential time stepping experiments for "
                    "stochastic Allen-Cahn equations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("converge", parents=[common],
                   help="weak-error table and convergence-rate fit")
    sub.add_parser("table1", parents=[common],
                   help="weak errors for taming exponents 1, 1/2, 1/3, 1/4")
    sub.add_parser("interface", parents=[common],
                   help="mean interface profiles at configured times")
    sub.add_parser("moments", parents=[common],
                   help="ensemble norm monitors over time")
    sub.add_parser("verify", parents=[common],
                   help="run the numerical property suite")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = preset(args.preset or "paper7-beta5")
    for item in args.overrides:
        path, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
        cfg = cfg.with_override(path.strip(), value)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.out_dir is not None:
        cfg = replace(cfg, directory=args.out_dir)
    return cfg.validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _DISPATCH[args.command](cfg, max(1, args.threads))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"trajectory blow-up: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
