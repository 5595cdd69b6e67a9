import platform

import numpy as np
import pytest

from tamedspde import SineBasis
from tamedspde.engine import _blas_threads


@pytest.fixture(scope="session")
def basis64():
    return SineBasis(64)


@pytest.fixture(scope="session")
def basis16():
    return SineBasis(16)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def fingerprint():
    """numpy, BLAS and CPU SIMD dispatch: what pinned float bytes depend on."""
    pinned = _blas_threads()
    lines = [f"python {platform.python_version()}, numpy {np.__version__}, "
             f"machine {platform.machine()}",
             f"blas pinned in sweeps: {pinned['library']} "
             f"(core {pinned['core']}), threads "
             f"{pinned['threads_outside']} outside, "
             f"{pinned['threads_inside']} inside"]
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:             # numpy < 1.26 prints only
        return "\n".join(lines)
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    simd = cfg.get("SIMD Extensions", {})
    lines.append(f"blas {blas.get('name')} {blas.get('version')}: "
                 f"{blas.get('openblas configuration')}")
    lines.append(f"simd baseline {simd.get('baseline')}, "
                 f"found {simd.get('found')}")
    return "\n".join(lines)
