"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are fixed here, not tuned: taming and scalar-inequality
slacks at 1e-12/1e-9, distributional checks at 4 standard errors, the
weak-rate reproduction against the published error column within a factor
band of [0.1, 10] per row with the fitted slope inside its stated window.

Criteria 3-8 also compare the numbers they judge, in the digits their
lines print, with ``science_ledger.json``: the bands judge, the ledger
records, so a change that moves a number shows its diff there.
"""

import json
import time
from pathlib import Path

import numpy as np

from tamedspde import (
    NoisePlan,
    SchemeConfig,
    SchemeKind,
    conv_dw_covariance,
    conv_variance,
    sweep_ensemble,
)
from tamedspde.cli import main
from tamedspde.drift import (
    check_power_mean_inequality,
    check_taming_domination,
    check_taming_gap,
)
from test_engine import norm_monitors
from test_noise import stream_increments

#: published weak-error column for the unit taming exponent, by level
REFERENCE_ERRORS = {8: 0.5982, 9: 0.3533, 10: 0.2131, 11: 0.1319, 12: 0.0853}
#: criterion -> the printed digits of each number it asserts on
LEDGER = json.loads((Path(__file__).parent / "science_ledger.json").read_text())


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion}: {detail}"


def ledger(criterion: str, printed: dict):
    """The criterion's printed values must equal its ledger entry; the
    message carries the new entry as JSON, ready to paste."""
    assert printed == LEDGER.get(criterion), (
        f"{criterion}: the science ledger differs; this run gives "
        f"{json.dumps({criterion: printed}, indent=2)}")


def read_error_table(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


def test_criterion_1_taming_properties():
    start = time.perf_counter()
    dom = check_taming_domination(seed=101)
    gap = check_taming_gap(seed=102)
    elapsed = time.perf_counter() - start
    report(
        "1 taming-properties",
        dom.passed and gap.passed and elapsed < 1.0,
        f"domination={dom.passed} gap={gap.passed} runtime={elapsed:.2f}s",
    )


def test_criterion_2_power_inequality():
    start = time.perf_counter()
    result = check_power_mean_inequality(seed=103)
    elapsed = time.perf_counter() - start
    report(
        "2 power-inequality",
        result.passed and elapsed < 1.0,
        f"worst margin={result.worst:.3g} runtime={elapsed:.2f}s",
    )


def test_criterion_3_noise_law(basis64):
    start = time.perf_counter()
    n = 100_000
    failures, printed = [], {}

    def within(sample, target, se, label):
        printed[label] = f"{sample:.6g}"
        if abs(sample - target) >= 4 * se:
            failures.append(f"{label}: {printed[label]} vs {target:.6g} "
                            f"(4se={4 * se:.2g})")

    var_se = np.sqrt(2.0 / (n - 1))
    modes = (1, 8, 64)
    for li, level in enumerate((10, 14)):
        h = 2.0**-level
        plan = NoisePlan(7000 + li, level)
        dws, convs = stream_increments(plan, range(n), basis64.eigenvalues, h,
                                       1, modes)
        for c, mode in enumerate(modes):
            lam = basis64.eigenvalues[mode - 1]
            dw, conv = dws[:, 0, c], convs[:, 0, c]
            v_dw, v_conv = h, conv_variance(lam, h)
            cov = conv_dw_covariance(lam, h)
            within(np.var(dw, ddof=1), v_dw, v_dw * var_se,
                   f"Var(dW) j={mode} h=2^-{level}")
            within(np.var(conv, ddof=1), v_conv, v_conv * var_se,
                   f"Var(conv) j={mode} h=2^-{level}")
            cov_se = np.sqrt((v_dw * v_conv + cov**2) / (n - 1))
            within(np.mean(dw * conv) - dw.mean() * conv.mean(), cov,
                   cov_se, f"Cov j={mode} h=2^-{level}")

    h = 2.0**-14
    plan = NoisePlan(7100, 14)
    n_coarse = 40_000
    coarse_se = np.sqrt(2.0 / (n_coarse - 1))
    modes = (1, 64)
    for ratio in (2, 16):
        _, convs = stream_increments(plan, range(n_coarse),
                                     basis64.eigenvalues, h, ratio, modes)
        for c, mode in enumerate(modes):
            lam = basis64.eigenvalues[mode - 1]
            decay = np.exp(-lam * h)
            agg = np.zeros(n_coarse)
            for k in range(ratio):
                agg = decay * agg + convs[:, k, c]
            target = conv_variance(lam, ratio * h)
            within(np.var(agg, ddof=1), target, target * coarse_se,
                   f"coarse Var R={ratio} j={mode}")

    elapsed = time.perf_counter() - start
    report(
        "3 noise-law",
        not failures and elapsed < 30.0,
        f"{len(failures)} deviations, runtime={elapsed:.1f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    ledger("3 noise-law", printed)


def test_criterion_4_ou_stationary_variance(basis64):
    start = time.perf_counter()
    n = 10_000
    cfg = SchemeConfig(epsilon=1.0, horizon=2.0, level=7, basis=basis64,
                       drift=None, kind=SchemeKind.TAMED_EXP_EULER)
    outs = sweep_ensemble([cfg], NoisePlan(404, 7), n)
    var = float(outs[0][-1][:, 0].var(ddof=1))
    target = 1.0 / (2.0 * np.pi**2)
    se = target * np.sqrt(2.0 / (n - 1))
    elapsed = time.perf_counter() - start
    printed = {"var": f"{var:.6f}", "target": f"{target:.6f}"}
    report(
        "4 ou-stationary-variance",
        abs(var - target) < 4 * se and elapsed < 60.0,
        f"var={printed['var']} target={printed['target']} 4se={4 * se:.2g} "
        f"runtime={elapsed:.1f}s",
    )
    ledger("4 ou-stationary-variance", printed)


def test_criterion_5_weak_rate_full_and_ci(tmp_path):
    # full preset, single-threaded
    start = time.perf_counter()
    out_full = tmp_path / "full"
    code = main(["converge", "--preset", "paper7-beta5",
                 "--threads", "1", "--out-dir", str(out_full)])
    elapsed_full = time.perf_counter() - start
    assert code == 0
    rows = read_error_table(out_full / "errors.csv")
    in_band = []
    for row in rows:
        level = int(row["level"])
        err = float(row["weak_error"])
        ref = REFERENCE_ERRORS[level]
        in_band.append(0.1 * ref <= err <= 10.0 * ref and err > 0)
    fit = json.loads((out_full / "rate_fit.json").read_text())
    slope_ok = 0.40 <= fit["slope"] <= 0.90
    errors = [float(r["weak_error"]) for r in rows]
    printed = {"errors": [str(e) for e in errors],
               "slope": f"{fit['slope']:.3f}"}
    report(
        "5a weak-rate-full",
        all(in_band) and slope_ok and elapsed_full < 1800.0,
        f"errors={errors} slope={printed['slope']} "
        f"runtime={elapsed_full:.0f}s",
    )
    ledger("5a weak-rate-full", printed)

    start = time.perf_counter()
    out_ci = tmp_path / "ci"
    # two threads: the thread count moves no byte (criterion 9)
    code = main(["converge", "--preset", "paper7-beta5-ci",
                 "--threads", "2", "--out-dir", str(out_ci)])
    elapsed_ci = time.perf_counter() - start
    assert code == 0
    fit_ci = json.loads((out_ci / "rate_fit.json").read_text())
    printed = {"slope": f"{fit_ci['slope']:.3f}"}
    report(
        "5b weak-rate-ci",
        0.3 <= fit_ci["slope"] <= 1.0 and elapsed_ci < 300.0,
        f"slope={printed['slope']} runtime={elapsed_ci:.0f}s",
    )
    ledger("5b weak-rate-ci", printed)


def test_criterion_6_beta100_regime(tmp_path):
    code = main(["converge", "--preset", "paper7-beta100",
                 "--threads", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_error_table(tmp_path / "errors.csv")
    all_admissible = all(r["admissible"] == "true" for r in rows)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    cfg_text = manifest["resolved_config"]
    fit = json.loads((tmp_path / "rate_fit.json").read_text())
    slope_ok = 0.35 <= fit["slope"] <= 0.90
    ratios = [float(r["admissibility_ratio"]) for r in rows]
    printed = {"slope": f"{fit['slope']:.3f}",
               "ratios": [str(r) for r in ratios]}
    report(
        "6 beta100-regime",
        all_admissible and slope_ok and "beta = 100" in cfg_text,
        f"admissible={all_admissible} slope={printed['slope']} "
        f"ratios={ratios}",
    )
    ledger("6 beta100-regime", printed)


def test_criterion_7_moment_stability(tmp_path, basis64):
    code = main(["moments", "--out-dir", str(tmp_path)])
    assert code == 0
    maxima = {}
    for horizon, name in ((1.0, "moments_T_1.csv"), (2.0, "moments_T_2.csv")):
        lines = (tmp_path / name).read_text().strip().split("\n")
        values = np.array([[float(c) for c in line.split(",")]
                           for line in lines[1:]])
        assert np.all(np.isfinite(values))
        maxima[horizon] = values[:, 1].max()
    ratio = maxima[2.0] / maxima[1.0]

    # companion per-sample view: the ensemble mean of the running max of
    # |X|_L2^2 must also stay stable when the horizon doubles
    from tamedspde.drift import ALLEN_CAHN, TamingParams

    mean_of_max = {}
    for horizon, level in ((1.0, 10), (2.0, 11)):
        cfg = SchemeConfig(
            epsilon=0.01, horizon=horizon, level=level, basis=basis64,
            drift=ALLEN_CAHN,
            taming=TamingParams(alpha=1.0, beta=5.0, theta=0.5),
        )
        ((max_l2, _, _),) = norm_monitors(
            [cfg], NoisePlan(20250811, level), 100)
        # a maximum over time is finite only if every step's norm is
        assert np.all(np.isfinite(max_l2))
        mean_of_max[horizon] = float(np.mean(max_l2**2))
    sample_ratio = mean_of_max[2.0] / mean_of_max[1.0]
    printed = {"max_T1": f"{maxima[1.0]:.4f}", "max_T2": f"{maxima[2.0]:.4f}",
               "ratio": f"{ratio:.3f}", "sample_ratio": f"{sample_ratio:.3f}"}
    report(
        "7 moment-stability",
        ratio <= 1.5 and sample_ratio <= 1.5,
        f"max mean |X|^2: T=1 {printed['max_T1']}, T=2 {printed['max_T2']}, "
        f"ratio={printed['ratio']}; mean of per-sample max: "
        f"ratio={printed['sample_ratio']}",
    )
    ledger("7 moment-stability", printed)


def test_criterion_8_interface_capture(tmp_path):
    code = main(["interface", "--preset", "interface-eps3",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "profiles_eps_0.001.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    by_time: dict[float, list[tuple[float, float]]] = {}
    for t, idx, x, v in rows:
        by_time.setdefault(float(t), []).append((float(x), float(v)))
    peak = max(abs(v) for vals in by_time.values() for _, v in vals)
    t0 = sorted(by_time[0.0])
    t0_exact = all(
        abs(v - np.sin(np.pi * x)) < 1e-12 for x, v in t0
    )
    printed = {"peak": f"{peak:.4f}"}
    report(
        "8 interface-capture",
        peak <= 1.1 and t0_exact and len(by_time) == 4,
        f"max |mean value|={printed['peak']}, t=0 profile exact={t0_exact}",
    )
    ledger("8 interface-capture", printed)


def test_criterion_9_thread_determinism(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t3"
    assert main(["interface", "--preset", "interface-eps2",
                 "--threads", "1", "--out-dir", str(out1)]) == 0
    assert main(["interface", "--preset", "interface-eps2",
                 "--threads", "3", "--out-dir", str(out2)]) == 0
    a = (out1 / "profiles_eps_0.01.csv").read_bytes()
    b = (out2 / "profiles_eps_0.01.csv").read_bytes()
    report(
        "9 thread-determinism",
        a == b,
        f"identical bytes={a == b} ({len(a)} bytes)",
    )
