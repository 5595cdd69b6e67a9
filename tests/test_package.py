"""The package surface: every public name resolves, deleted names stay
gone, every benchmark hook point exists, the benchmark harness runs its
tiny workloads correctly, and every demo script and the README
quickstart run."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tamedspde
from tamedspde import drift

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["tamedspde"] + [
    f"tamedspde.{m.name}" for m in pkgutil.iter_modules(tamedspde.__path__)
]
#: entry points folded into the API that remains
DELETED = {"weak_error_estimate", "run_ensemble", "EnsembleStats",
           "standard_pairs_batch", "_write_monitors",
           "_decode", "_FIELD_TYPES", "_KEY_BY_FIELD", "_key_of",
           "tamed_exponential_step", "semi_implicit_reference_step",
           "_one_step", "run_trajectory", "TrajectoryRecord",
           "_monitor_values", "standard_pairs", "increment_pairs",
           "sample_increment_pair", "coarse_convolution_increment",
           "NoiseIncrementPair", "_state_norms", "_NORM_KINDS",
           "weak_errors_shared_reference", "_error_table", "_setup",
           "_reference", "_constants", "_output_dir", "_fmt", "_encode",
           "preset", "PropertyReport", "StepSizeVerdict", "max_mean_l2_sq",
           "max_mean_l4_4", "max_mean_sup", "degree", "RunOutput",
           "_snapshot_steps"}
#: basis methods that nothing in the package called
DELETED_METHODS = {"eigenvalue", "semigroup_apply", "to_spectral"}
#: benchmark hook points whose targets were deleted before the benchmark
#: was changed to match; a traced run reads zero for the three noise
#: layers, while ``analysis.entry`` still fires through
#: ``cli.weak_error_table``
DEAD_HOOKS = {"noise.standard_pairs_batch", "noise._box_muller",
              "noise._raw_words", "cli.weak_errors_shared_reference"}
#: the package's public surface, sorted: a name added or removed shows up
#: here in review
PUBLIC = [
    "ALLEN_CAHN", "BlowUpError", "ConfigError", "DriftConstants",
    "DriftDerivationError", "DriftSpec", "ErrorRow", "ErrorTable",
    "ExperimentConfig", "MomentReport", "NoisePlan", "PRESETS", "ProfileSet",
    "RateFit", "SchemeConfig", "SchemeKind", "SineBasis",
    "StepTestFunction", "TamingParams", "__version__", "conv_dw_covariance",
    "conv_variance", "default_initial", "derive_growth_constants",
    "f_delta_eval", "f_delta_prime_eval", "f_eval", "f_prime_eval",
    "f_tau_eval", "fit_convergence_rate", "interface_profile",
    "moment_sup_estimate", "property_suite", "step_size_condition",
    "sweep_ensemble", "weak_error_table",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(tamedspde.__all__) == PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert DELETED.isdisjoint(vars(mod))
    # and no class of the module keeps one as a method
    for obj in vars(mod).values():
        if inspect.isclass(obj) and obj.__module__ == module:
            assert DELETED.isdisjoint(vars(obj)), obj


def test_deleted_basis_methods_stay_gone():
    assert DELETED_METHODS.isdisjoint(dir(tamedspde.SineBasis))


def test_benchmark_hook_points_resolve():
    # perfbench wraps these attributes by name and skips a missing one in
    # silence, so a deleted hook point would read zero in a traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = set()
    for module, attr, _ in tracing.HOOKS:
        owner = importlib.import_module(f"tamedspde.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if not hasattr(owner, name):
            missing.add(f"{module}.{attr}")
    # an exact list: a stale or mistyped entry fails too
    assert missing == DEAD_HOOKS


def test_benchmark_tiny_workloads_run_correctly():
    # every workload at tiny sizes, each repeat checked by the harness:
    # exit code, CSV schema, sample-steps swept and repeat bytes.  It took
    # about 6 s for 24 runs on a 2-core Xeon
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "all", "--tiny", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), (
        proc.stdout[-4000:])


def test_numpy_polynomial_never_imported(tmp_path):
    # f and f' share the package's own Horner; numpy.polynomial is only
    # the tests' oracle.  verify reaches f_prime_eval through
    # derive_growth_constants, the one command path to it
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    code = ("import sys\n"
            "from tamedspde import cli\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "assert cli.main(['verify', '--out-dir', sys.argv[1]]) == 0\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("cls, names", [
    # a run is 2**level steps of its horizon (tau and n_steps follow), and
    # every run is driven by the noise: no setting duplicates tau or
    # switches the noise off
    (tamedspde.SchemeConfig,
     ("epsilon", "horizon", "level", "basis", "drift", "taming", "kind")),
    (tamedspde.TamingParams, ("alpha", "beta", "theta")),
    # the profiles' nodes are the basis's grid, and the moments' maxima
    # over time are np.max of their columns: neither is kept twice
    (tamedspde.ProfileSet, ("times", "mean_values")),
    (tamedspde.MomentReport, ("times", "mean_l2_sq", "mean_l4_4", "mean_sup")),
], ids=["SchemeConfig", "TamingParams", "ProfileSet", "MomentReport"])
def test_config_object_fields(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


@pytest.mark.parametrize("func, names", [
    # a blow-up always raises, with no option to skip it; every path
    # starts from the default initial state
    (tamedspde.sweep_ensemble,
     ("runs", "plan", "samples", "snapshot_steps", "snapshot_fn",
      "threads")),
    (tamedspde.interface_profile,
     ("schemes", "plan", "n_samples", "times", "threads")),
    # one table per group of schemes, all against one reference
    (tamedspde.weak_error_table,
     ("groups", "reference", "plan", "n_samples", "phi", "constants",
      "coupled", "threads")),
    # the verification protocol is fixed: one grid, one delta family and
    # one sample count, so no check takes a bound, a size or a delta
    (drift.verification_grid, ()),
    (tamedspde.derive_growth_constants, ("d",)),
    (drift.check_taming_domination, ("d", "seed")),
    (drift.check_taming_gap, ("d", "seed")),
    (drift.check_one_sided_delta_derivative, ("d",)),
    (drift.check_delta_derivative_growth, ("d",)),
    (drift.check_power_mean_inequality, ("seed",)),
    (tamedspde.property_suite, ("drift", "seed")),
    # the moments are taken at every step of the run
    (tamedspde.moment_sup_estimate, ("cfg", "plan", "n_samples", "threads")),
], ids=["sweep_ensemble", "interface_profile", "weak_error_table",
        "verification_grid", "derive_growth_constants",
        "check_taming_domination", "check_taming_gap",
        "check_one_sided_delta_derivative", "check_delta_derivative_growth",
        "check_power_mean_inequality", "property_suite",
        "moment_sup_estimate"])
def test_function_parameters(func, names):
    assert tuple(inspect.signature(func).parameters) == names


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("0*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    [code] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert "slope" in capsys.readouterr().out
