"""End-to-end and per-layer benchmark of the tamedspde Monte-Carlo sweeps.

    python3 perfbench/run.py --workload converge-ci --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # every workload in turn

Each workload is one CLI command run in a fresh process, one at a time
(a closed loop with one client).  ``--trace 0`` repeats the command until
``--seconds`` have passed (at least MIN_REPEATS times) and reports the
median end-to-end figures; ``--trace 1`` runs it once with the per-layer
hooks of ``tracing.py`` installed and reports per-layer figures, plus the
tracing overhead against untraced repeats of the same run.

Every run's outputs are checked: exit code, CSV headers, row counts and
finite values, the same bytes on every repeat of a run, and, for the
program's default seed, the sha256 pinned in ``pins.json``.  The seed
reaches the program only as ``--seed``.  The last line of standard output
is the JSON result; the machine fingerprint, per-repeat figures and output
hashes are printed before it and saved under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_SOURCE = ROOT / "src" / "tamedspde" / "cli.py"

DEFAULT_SEED = 20250811       # the program's own default master seed
MIN_REPEATS = 3
SETUP_PROBES = 3              # extra processes stopped at the first sweep entry
RUN_BUDGET_S = 140.0          # no repeat starts once this much has passed
HARD_LIMIT_S = 170.0          # a process still running then is killed

_CONVERGE_HEADER = ("level", "tau", "weak_error", "mc_halfwidth", "n_samples",
                    "admissible", "admissibility_ratio")
_TABLE1_HEADER = ("level", "tau", "err_alpha_1", "err_alpha_1_2",
                  "err_alpha_1_3", "err_alpha_1_4")
_PROFILE_HEADER = ("time", "node_index", "x", "mean_value")
_MOMENTS_HEADER = ("time", "mean_l2_sq", "mean_l4_4", "mean_sup")

# The tiny variants keep each workload's command and code path at a size
# that runs in well under a second; the self-test uses them.
_TINY_LEVELS = ["--set", "sampling.n_samples=4",
                "--set", "discretization.fine_level=8",
                "--set", "discretization.tau_levels=5 6 7"]

WORKLOADS = {
    "converge-ci": {
        "args": ["converge", "--preset", "paper7-beta5-ci", "--threads", "1"],
        "sample_steps": 200 * 4096,
        "csv": {"errors.csv": (_CONVERGE_HEADER, 4)},
        "tiny": (_TINY_LEVELS, 4 * 256, {"errors.csv": 3}),
    },
    "table1-ci": {
        "args": ["table1", "--preset", "paper7-beta5-ci", "--threads", "1"],
        "sample_steps": 200 * 4096,
        "csv": {"table1.csv": (_TABLE1_HEADER, 4)},
        "tiny": (_TINY_LEVELS, 4 * 256, {"table1.csv": 3}),
    },
    "interface-t2": {
        "args": ["interface", "--preset", "interface-eps2", "--threads", "2"],
        "sample_steps": 1000 * 1024,
        "csv": {"profiles_eps_0.01.csv": (_PROFILE_HEADER, 4 * 64)},
        # 300 samples still make two chunks, so the thread pool runs
        "tiny": (["--set", "sampling.n_samples=300",
                  "--set", "discretization.fine_level=6",
                  "--set", "discretization.tau_levels=6"],
                 300 * 64, {"profiles_eps_0.01.csv": 4 * 64}),
    },
    "moments": {
        "args": ["moments", "--threads", "1"],
        "sample_steps": 100 * (1024 + 2048),
        "csv": {"moments_T_1.csv": (_MOMENTS_HEADER, 1025),
                "moments_T_2.csv": (_MOMENTS_HEADER, 2049)},
        "tiny": (["--set", "moments.n_samples=4", "--set", "moments.tau_level=5"],
                 4 * (32 + 64), {"moments_T_1.csv": 33, "moments_T_2.csv": 65}),
    },
}

END_TO_END_UNITS = {"wall_s": "s", "throughput_msps": "Mstep/s",
                    "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def fingerprint():
    """What the timings and the output bytes depend on, as far as readable."""
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:             # numpy < 1.26 prints only
        return info
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {})
    info.update({
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
    })
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_process(cli_args, workdir, tag, mode, deadline):
    """Run one CLI command in a fresh process; return its raw figures.

    ``mode`` is ``run``, ``trace`` or ``setup`` (see ``child.py``); the
    process is killed if it is still running at the monotonic ``deadline``.
    """
    # the same relative output directory on every repeat, because the
    # resolved config that is hashed records it
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    report = workdir / f"{tag}.json"
    log = workdir / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "child.py"), str(report), mode,
           *cli_args, "--out-dir", outdir.name]
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    # wait4 reaped the process; tell Popen so it does not try again
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "tag": tag,
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "outdir": outdir,
    }
    if report.exists():
        data = json.loads(report.read_text())
        if data.get("first_sweep") is not None:
            result["setup_s"] = data["first_sweep"] - t0
        result["sample_steps"] = data.get("sample_steps")
        result["layers"] = data.get("layers")
        result["missing_hooks"] = data.get("missing_hooks")
    result["log_tail"] = log.read_text(errors="replace")[-600:]
    return result


def check_outputs(result, spec, expected_rows):
    """Problems with one run's outputs (empty when they are correct)."""
    problems = check_setup(result)
    if result["exit_code"] != 0:
        return problems
    outdir = result["outdir"]
    if not (outdir / "manifest.json").exists():
        problems.append("manifest.json missing")
    for name, (header, _) in spec["csv"].items():
        path = outdir / name
        if not path.exists():
            problems.append(f"{name} missing")
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or tuple(rows[0]) != header:
            problems.append(f"{name}: header {rows[:1]}")
            continue
        if len(rows) - 1 != expected_rows[name]:
            problems.append(f"{name}: {len(rows) - 1} rows, "
                            f"expected {expected_rows[name]}")
        for row in rows[1:]:
            if len(row) != len(header) or not all(map(_finite_cell, row)):
                problems.append(f"{name}: bad row {row}")
                break
    return problems


def check_setup(result):
    """Problems with a set-up probe (empty when it reached the sweep)."""
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}: {result['log_tail']}"]
    if "setup_s" not in result:
        return ["no sweep entry was observed"]
    return []


def _finite_cell(text):
    if text in ("true", "false"):
        return True
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def output_hashes(outdir):
    """sha256 of every output file except the timestamped manifest."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def median_metrics(repeats, probes, sample_steps):
    """Medians over the full repeats; set-up time also over the probes."""
    med = statistics.median
    setups = [r["setup_s"] for r in repeats + probes if "setup_s" in r]
    timed = [r for r in repeats if "setup_s" in r] or repeats
    values = {
        "wall_s": med(r["wall_s"] for r in timed),
        "throughput_msps": med(sample_steps / 1e6 / r["wall_s"] for r in timed),
        "setup_s": med(setups) if setups else math.nan,
        "cpu_s": med(r["cpu_s"] for r in timed),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in timed),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run(workload, seed, seconds, trace, tiny=False):
    spec = WORKLOADS[workload]
    cli_args = [*spec["args"], "--seed", str(seed)]
    expected_rows = {name: rows for name, (_, rows) in spec["csv"].items()}
    sample_steps = spec["sample_steps"]
    if tiny:
        overrides, sample_steps, expected_rows = spec["tiny"]
        cli_args += overrides
    pins = json.loads((HERE / "pins.json").read_text())
    pinned = pins["hashes"].get(workload) if seed == pins["seed"] and not tiny else None

    results, problems = [], {}
    first_hashes = None
    start = time.monotonic()
    HERE.joinpath("results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)

        def attempt(tag, mode):
            nonlocal first_hashes
            r = run_process(cli_args, workdir, tag, mode, start + HARD_LIMIT_S)
            issues = (check_setup(r) if mode == "setup"
                      else check_outputs(r, spec, expected_rows))
            if not issues and mode != "setup":
                if r.get("sample_steps") != sample_steps:
                    issues.append(f"sweeps covered {r.get('sample_steps')} "
                                  f"sample-steps, expected {sample_steps}")
                r["hashes"] = output_hashes(r["outdir"])
                if pinned is not None and r["hashes"] != pinned:
                    issues.append(f"output hashes differ from pins.json: {r['hashes']}")
                if first_hashes is None:
                    first_hashes = r["hashes"]
                elif r["hashes"] != first_hashes:
                    issues.append("output bytes differ between repeats of one seed")
            if issues:
                problems[tag] = issues
            results.append(r)
            print(f"{tag}: exit {r['exit_code']} wall {r['wall_s']:.3f} s "
                  f"setup {r.get('setup_s', math.nan):.3f} s "
                  f"cpu {r['cpu_s']:.3f} s rss {r['peak_rss_mb']:.1f} MB"
                  + (" FAILED" if issues else ""), flush=True)
            return r

        def more(done, least):
            elapsed = time.monotonic() - start
            last = results[-1]["wall_s"] if results else 0.0
            if elapsed + last >= RUN_BUDGET_S:
                return False
            return done < least or elapsed < seconds

        traced = attempt("traced", "trace") if trace else None
        untraced = []
        while more(len(untraced), 1 if trace else MIN_REPEATS):
            untraced.append(attempt(f"run{len(untraced)}", "run"))

        if trace:
            if traced.get("missing_hooks"):
                print("hook points not found, their layers read zero: "
                      + ", ".join(traced["missing_hooks"]))
            metrics = dict(traced.get("layers") or {})
            metrics["trace.overhead_s"] = {
                "value": traced["wall_s"] - statistics.median(
                    r["wall_s"] for r in untraced) if untraced else math.nan,
                "unit": "s",
            }
        else:
            probes = [attempt(f"setup{i}", "setup") for i in range(SETUP_PROBES)]
            metrics = median_metrics(untraced, probes, sample_steps)

    attempted, failed = len(results), len(problems)
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for tag, issues in problems.items():
        for issue in issues:
            print(f"FAILED {tag}: {issue}")
    if first_hashes is not None:
        print("output sha256: " + json.dumps(first_hashes, sort_keys=True))
    print(f"failed_ratio = {failed / attempted:.4g} ({failed} of {attempted} runs)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "command": cli_args, "fingerprint": fp,
        "hashes": first_hashes, "pinned": pinned is not None,
        "runs": [{k: v for k, v in r.items() if k not in ("outdir", "log_tail")}
                 for r in results],
        "problems": problems, "failed_ratio": failed / attempted,
        "metrics": metrics,
    }
    name = f"{workload}{'-tiny' if tiny else ''}-seed{seed}-trace{int(trace)}.json"
    HERE.joinpath("results", name).write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run a seconds-long variant of the workload "
                             "(harness self-test)")
    args = parser.parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"error: {CLI_SOURCE.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"== {name}", flush=True)
        results[name] = run(name, args.seed, args.seconds, bool(args.trace),
                            tiny=args.tiny)
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
