"""The package surface: every public name resolves, deleted names stay
gone, every benchmark hook point exists, and every demo script runs."""

import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tamedspde

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
           "NoiseIncrementPair", "_state_norms", "_NORM_KINDS"}
#: benchmark hook points whose targets were deleted before the benchmark
#: was changed to match; a traced run reads zero for their layers
DEAD_HOOKS = {"noise.standard_pairs_batch", "noise._box_muller",
              "noise._raw_words"}


@pytest.mark.parametrize("module", MODULES)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert DELETED.isdisjoint(vars(mod))


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
    assert missing <= DEAD_HOOKS


@pytest.mark.parametrize("cls, names", [
    # the step size is the scheme's alone, and every run is driven by the
    # noise: no setting duplicates tau or switches the noise off
    (tamedspde.SchemeConfig,
     ("epsilon", "tau", "n_steps", "basis", "drift", "taming", "kind")),
    (tamedspde.TamingParams, ("alpha", "beta", "theta")),
], ids=["SchemeConfig", "TamingParams"])
def test_config_object_fields(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("0*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
