"""The package surface: every public name resolves, deleted names stay
gone, and every demo script runs."""

import dataclasses
import importlib
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
           "_decode", "_FIELD_TYPES", "_KEY_BY_FIELD", "_key_of"}


@pytest.mark.parametrize("module", MODULES)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert DELETED.isdisjoint(vars(mod))


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
