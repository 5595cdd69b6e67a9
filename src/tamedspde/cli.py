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
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import asdict, astuple, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ErrorRow,
    ErrorTable,
    StepTestFunction,
    fit_convergence_rate,
    interface_profile,
    moment_sup_estimate,
    property_suite,
    weak_error_table,
)
from .config import ConfigError, ExperimentConfig, format_value
from .drift import (DriftDerivationError, DriftSpec, TamingParams,
                    derive_growth_constants)
from .engine import BlowUpError, SchemeConfig, SchemeKind, _blas_threads
from .noise import NoisePlan
from .presets import PRESETS
from .spectral import SineBasis

__all__ = ["main"]

#: table1.csv's error columns -> their taming exponents
_TABLE1 = {"err_alpha_1": 1.0, "err_alpha_1_2": 0.5,
           "err_alpha_1_3": 1.0 / 3.0, "err_alpha_1_4": 0.25}


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


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


def _earlier_outputs(outdir: Path) -> list:
    """What an earlier tamedspde run's manifest in ``outdir`` lists; a
    target that is not missing, empty or such a run's is refused."""
    try:
        old = json.loads((outdir / "manifest.json").read_text())
        if old["tool"] == "tamedspde":
            return old["outputs"] if isinstance(old.get("outputs"), list) else []
    except (OSError, ValueError, TypeError, KeyError):
        pass
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        raise ConfigError(f"outputs.directory: {outdir} is neither missing, "
                          "empty nor an earlier tamedspde output directory")
    return []


def _write_outputs(cfg: ExperimentConfig, command: str, files: dict,
                   extra: dict) -> None:
    """Write a finished run into ``cfg.directory``: each of ``files``, a
    ``(header, rows)`` pair as CSV and a dict as JSON, then the manifest
    listing exactly them.  All are written into a temporary directory
    there first.  Only once every write has succeeded, and no output name
    is held by a directory, are the files that an earlier run's manifest
    lists and this run does not write deleted and the outputs renamed
    into place, the manifest last: a failed write leaves the target as it
    was."""
    outdir = Path(cfg.directory)
    listed = _earlier_outputs(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".tamedspde-", dir=outdir) as tmp:
        stage = Path(tmp)
        for name, content in files.items():
            if isinstance(content, dict):
                _write_json(stage / name, content)
            else:
                _write_csv(stage / name, *content)
        _write_manifest(stage, command, cfg, list(files), **extra)
        names = [*files, "config.resolved.ini", "manifest.json"]
        for name in names:
            if (outdir / name).is_dir():
                raise IsADirectoryError(f"{outdir / name} is a directory")
        for name in listed:
            # a plain file only: no "/" leads out, and "", "." and ".." are dirs
            if (isinstance(name, str) and "/" not in name and name not in files
                    and (outdir / name).is_file()):
                (outdir / name).unlink()
        for name in names:
            os.replace(stage / name, outdir / name)


def _drift(cfg: ExperimentConfig) -> DriftSpec:
    return DriftSpec(q=cfg.q, leading=cfg.leading, lower=cfg.f0_coeffs)


def _scheme(cfg: ExperimentConfig, level: int, *, basis: SineBasis,
            drift: DriftSpec,
            kind: SchemeKind = SchemeKind.TAMED_EXP_EULER) -> SchemeConfig:
    """The ``kind`` scheme of ``cfg`` at tau = horizon / 2**level; only
    the tamed kind takes the taming."""
    taming = None
    if kind is SchemeKind.TAMED_EXP_EULER:
        taming = TamingParams(alpha=cfg.alpha, beta=cfg.beta, theta=cfg.theta)
    return SchemeConfig(epsilon=cfg.epsilon, horizon=cfg.horizon, level=level,
                        basis=basis, drift=drift, taming=taming, kind=kind)


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


def _weak_tables(cfg: ExperimentConfig, alphas: tuple[float, ...],
                 threads: int) -> list[ErrorTable]:
    """One weak-error table per taming exponent in ``alphas``, each over
    ``cfg.tau_levels``; one sweep runs every scheme and the fine
    reference on the shared noise path.  A drift that certifies no
    growth constants is a configuration error."""
    drift = _drift(cfg)
    try:
        constants = derive_growth_constants(drift)
    except DriftDerivationError as exc:
        raise ConfigError(f"model.leading: the drift of model.leading and "
                          f"model.f0_coeffs certifies no constants: {exc}") from None
    basis = SineBasis(cfg.n_modes)
    groups = [
        [_scheme(replace(cfg, alpha=alpha), k, basis=basis, drift=drift)
         for k in cfg.tau_levels]
        for alpha in alphas
    ]
    reference = _scheme(cfg, cfg.fine_level, basis=basis, drift=drift,
                        kind=SchemeKind.SEMI_IMPLICIT_REFERENCE)
    return weak_error_table(
        groups, reference, NoisePlan(cfg.master_seed, cfg.fine_level),
        cfg.n_samples, StepTestFunction(norm_kind=cfg.phi_norm),
        constants, coupled=cfg.coupled, threads=threads,
    )


def cmd_converge(cfg: ExperimentConfig, threads: int):
    [table] = _weak_tables(cfg, (cfg.alpha,), threads)
    files = {"errors.csv": (tuple(f.name for f in fields(ErrorRow)),
                            map(astuple, table.rows))}
    for row in table.rows:
        print(f"level {row.level}  tau {row.tau:.3e}  weak error "
              f"{row.weak_error:.6f} +- {row.mc_halfwidth:.6f}  "
              f"admissible={row.admissible} (ratio {row.admissibility_ratio:.3g})")
    try:
        fit = fit_convergence_rate(table)
    except ValueError as exc:               # "rate fit refused: <reason>"
        print(exc)
    else:
        files["rate_fit.json"] = {**asdict(fit), "n_rows": len(table.rows)}
        print(f"fitted convergence slope: {fit.slope:.4f}")
    return 0, files, {"admissibility": _admissibility_entries(table)}


def cmd_table1(cfg: ExperimentConfig, threads: int):
    tables = _weak_tables(cfg, tuple(_TABLE1.values()), threads)
    header = ("level", "tau", *_TABLE1)
    rows = [
        (row.level, row.tau) + tuple(t.rows[i].weak_error for t in tables)
        for i, row in enumerate(tables[0].rows)
    ]
    fits = {}
    monotone = {}
    for (name, alpha), table in zip(_TABLE1.items(), tables):
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
    files = {"table1.csv": (header, rows),
             "table1_fits.json": {"fits": fits, "monotone": monotone}}
    return 0, files, {"admissibility": [
        {"alpha": alpha, **entry}
        for alpha, table in zip(_TABLE1.values(), tables)
        for entry in _admissibility_entries(table)
    ]}


def cmd_interface(cfg: ExperimentConfig, threads: int):
    basis, drift = SineBasis(cfg.n_modes), _drift(cfg)
    epsilons = cfg.interface_epsilons or (cfg.epsilon,)
    schemes = [_scheme(replace(cfg, epsilon=eps), cfg.tau_levels[0],
                       basis=basis, drift=drift) for eps in epsilons]
    # the profiles step at tau_levels[0] only, so its grid must hold every
    # time; validate cannot ask this of the other commands' configs
    try:
        for t in cfg.interface_times:
            schemes[0].step_at(t)
    except ValueError as exc:
        raise ConfigError(f"interface.times: {exc}") from None
    names = [f"profiles_eps_{format(eps, 'g')}.csv" for eps in epsilons]
    if clash := [name for name in names if names.count(name) > 1]:
        raise ConfigError(f"interface.epsilons: two epsilons would both "
                          f"write {clash[0]}")
    # one sweep over the shared noise path gives every epsilon its profiles
    profiles = interface_profile(
        schemes, NoisePlan(cfg.master_seed, cfg.fine_level), cfg.n_samples,
        cfg.interface_times, threads=threads,
    )
    files = {}
    for eps, name, profile in zip(epsilons, names, profiles):
        # the rows stay lazy: the outer zip binds this profile now, since
        # they are written after the loop
        files[name] = (("time", "node_index", "x", "mean_value"), (
            (t, i + 1, x, value)
            for t, values in zip(profile.times, profile.mean_values)
            for i, (x, value) in enumerate(zip(basis.grid, values))))
        peak = float(np.max(np.abs(profile.mean_values)))
        print(f"epsilon={eps:g}: max |mean value| = {peak:.4f}")
    return 0, files, {}


def cmd_moments(cfg: ExperimentConfig, threads: int):
    basis, drift = SineBasis(cfg.n_modes), _drift(cfg)
    reports = []
    for horizon, level in zip(cfg.moments_horizons, cfg.moments_levels):
        scheme = _scheme(replace(cfg, horizon=horizon), level, basis=basis,
                         drift=drift)
        reports.append(moment_sup_estimate(
            scheme, NoisePlan(cfg.master_seed, level), cfg.moments_n_samples,
            threads=threads,
        ))
    files = {}
    maxima = []
    for horizon, report in zip(cfg.moments_horizons, reports):
        files[f"moments_T_{format(horizon, 'g')}.csv"] = (
            ("time", "mean_l2_sq", "mean_l4_4", "mean_sup"),
            zip(report.times, report.mean_l2_sq, report.mean_l4_4,
                report.mean_sup))
        maxima.append({
            "horizon": horizon,
            "max_mean_l2_sq": float(np.max(report.mean_l2_sq)),
            "max_mean_l4_4": float(np.max(report.mean_l4_4)),
            "max_mean_sup": float(np.max(report.mean_sup)),
        })
        print(f"T={horizon:g}: max mean |X|_L2^2 = "
              f"{maxima[-1]['max_mean_l2_sq']:.6f}")
    ratios = [
        {"horizons": [a["horizon"], b["horizon"]],
         "l2_sq_ratio": b["max_mean_l2_sq"] / a["max_mean_l2_sq"]}
        for a, b in zip(maxima, maxima[1:])
    ]
    return 0, files, {"maxima": maxima, "growth_ratios": ratios}


def cmd_verify(cfg: ExperimentConfig, threads: int):
    drift = _drift(cfg)
    checks = property_suite(drift, seed=cfg.master_seed)
    payload = {"checks": [asdict(c) for c in checks],
               "all_passed": all(c.passed for c in checks)}
    try:
        payload["constants"] = {**asdict(derive_growth_constants(drift)),
                                "certified": True}
    except ValueError as exc:
        payload["constants"] = {"certified": False, "error": str(exc)}
        payload["all_passed"] = False
    files = {"verify_report.json": payload}
    for check in payload["checks"]:
        state = "pass" if check["passed"] else "FAIL"
        print(f"{check['name']}: {state} (n={check['n_samples']}, "
              f"worst margin {check['worst']:.3g})")
    if not payload["all_passed"]:
        print("property suite FAILED", file=sys.stderr)
        return 1, files, {}
    print("property suite passed")
    return 0, files, {}


#: name -> (command, help); each command returns (exit code, files,
#: manifest keywords) and writes nothing; ``main`` hands the result to
#: ``_write_outputs``
_COMMANDS = {
    "converge": (cmd_converge, "weak-error table and convergence-rate fit"),
    "table1": (cmd_table1,
               "weak errors for taming exponents 1, 1/2, 1/3, 1/4"),
    "interface": (cmd_interface, "mean interface profiles at configured times"),
    "moments": (cmd_moments, "ensemble norm monitors over time"),
    "verify": (cmd_verify, "run the numerical property suite"),
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
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        # argparse has already rejected an unknown name
        cfg = PRESETS[args.preset or "paper7-beta5"]
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
        _earlier_outputs(Path(cfg.directory))     # before any sweep
        command, _ = _COMMANDS[args.command]
        code, files, extra = command(cfg, max(1, args.threads))
        _write_outputs(cfg, args.command, files, extra)
        return code
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
