"""Golden bytes: the sha256 of every CSV and JSON side output from five
tiny CLI runs, and of the admissibility list in the manifests of the two
runs that write one.

The sizes cover the noise layout's edge cases: a fine level of 10 (128
noise windows of 8 steps; coarse ratios 512, 16 and 4, so one ratio-512
coarse step spans 64 windows), fine levels of 7 and 6 (16 windows and 8),
and a 300-sample run at two threads (two chunks of 150 samples in the
thread pool, each split into Box-Muller blocks of 32 samples and a last
block of 22).  The fifth run is the property suite of the default drift.

The hashes were recorded with numpy 2.4 and OpenBLAS 0.3.31 on an x86-64
CPU with AVX-512.  libm and the SIMD kernels may differ in the last bit on
other machines, so a mismatch prints this machine's numpy, BLAS and SIMD
fingerprint.  The same five runs are also pinned with numpy held to its
X86_V3 (AVX2) kernels.  Re-pinning a hash needs a CHANGES.md entry that
says why the bits moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tamedspde.cli import main

GOLDEN = {
    "converge": (
        ["converge", "--preset", "paper7-beta5-ci",
         "--set", "sampling.n_samples=6",
         "--set", "discretization.fine_level=10",
         "--set", "discretization.tau_levels=1 6 8"],
        {"errors.csv":
            "7d4e9070b76c638312ee0b9e401bc4670194a7c2e03a8eb691348fbc01ef1331",
         "rate_fit.json":
            "fec8086ad03fcfbb6307a3cb7c91b1d130d50be3cc39f43571d1e8d9a0b1b4bf"},
    ),
    "table1": (
        ["table1", "--preset", "paper7-beta5-ci",
         "--set", "sampling.n_samples=5",
         "--set", "discretization.fine_level=7",
         "--set", "discretization.tau_levels=4 5 6"],
        {"table1.csv":
            "49062874c3a1052240ec67d9ce026d4ca6e6c68490a65e6c51eb8b1bf7e1e09e",
         "table1_fits.json":
            "d013368da294a60a58d57dbd59f4dd8d994f85460306775bb0a2f76683b7a725"},
    ),
    "interface": (
        ["interface", "--preset", "interface-eps2", "--threads", "2",
         "--set", "sampling.n_samples=300",
         "--set", "discretization.fine_level=6",
         "--set", "discretization.tau_levels=6"],
        {"profiles_eps_0.01.csv":
            "c11e89967741166ed833fbdf4038f671a472fc95b821a042d54f44b348061986"},
    ),
    "moments": (
        ["moments", "--set", "moments.n_samples=4",
         "--set", "moments.tau_level=5"],
        {"moments_T_1.csv":
            "3af89a21459b280d278ae352fe1ef03c4e0d3826a745ddc781248dbb498d9818",
         "moments_T_2.csv":
            "61eabf34226b2ec225a1056c1ea46f7e315b48ca440e545ceeb0bc22b151985d"},
    ),
    "verify": (
        ["verify"],
        {"verify_report.json":
            "98babf44974ca417abe23a6458c906196fbab1a5cf3fd4d47a194d797a53d5f0"},
    ),
}

#: sha256 of ``json.dumps(manifest["admissibility"], sort_keys=True)``
ADMISSIBILITY = {
    "converge":
        "fa759684573112addf282a1e2df07adced4f484b407acc77830c8089ef08cf6c",
    "table1":
        "cfadf60f1585b9b3213642dba4258b795959829391e88e96905b6100254b387c",
}


#: the hashes that move when numpy runs its X86_V3 kernels instead of
#: AVX-512: ``np.log`` in the noise's Box-Muller and ``np.power`` in the
#: norm monitors' ``phys**4`` round some last bits differently there.
#: converge and table1 report step-function observables, which absorb
#: those bits, and keep their pins; so does verify's report
X86_V3_MOVED = {
    "interface": {
        "profiles_eps_0.01.csv":
            "fa175917251edfa7de7ad8d048cc5acc778f0ec02c046c99199ae8f091f3595c"},
    "moments": {
        "moments_T_1.csv":
            "906b85ae2662063fa6803c8eee511c100d43fb2aea5d167239ee45f1f1f8bea9",
        "moments_T_2.csv":
            "71b67ed7dfb7104a07596fa4157123023275f7737f18eac0b4ec7f20bafb4ce8"},
}
#: numpy's dispatch held to X86_V3 (AVX2) on an AVX-512 CPU
X86_V3_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_hashes(command, out_dir: Path) -> dict:
    """Run one golden command into ``out_dir``: the sha256 of each pinned
    output, plus that of the admissibility list where it has a pin."""
    argv, pinned = GOLDEN[command]
    assert main(argv + ["--out-dir", str(out_dir)]) == 0
    got = {name: sha256(out_dir / name) for name in pinned}
    if command in ADMISSIBILITY:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        entries = json.dumps(manifest["admissibility"], sort_keys=True)
        got["admissibility"] = hashlib.sha256(entries.encode()).hexdigest()
    return got


def pins(command) -> dict:
    want = dict(GOLDEN[command][1])
    if command in ADMISSIBILITY:
        want["admissibility"] = ADMISSIBILITY[command]
    return want


def has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:                 # numpy < 2
        return False
    return bool(__cpu_features__.get("X86_V4"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_bytes_pinned(command, tmp_path, fingerprint):
    assert run_hashes(command, tmp_path) == pins(command), (
        f"output bytes moved on this machine:\n{fingerprint}")


@pytest.mark.skipif(not has_avx512(), reason="numpy finds no AVX-512 "
                    "(X86_V4) here, so no lower dispatch level can be forced")
def test_csv_bytes_pinned_at_x86_v3(tmp_path, fingerprint):
    # NPY_DISABLE_CPU_FEATURES acts at numpy's import, so the five runs go
    # to one child process
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=X86_V3_ONLY,
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import json, pathlib, sys\n"
            "from test_golden import GOLDEN, run_hashes\n"
            "out = pathlib.Path(sys.argv[1])\n"
            "got = {c: run_hashes(c, out / c) for c in GOLDEN}\n"
            "(out / 'hashes.json').write_text(json.dumps(got))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads((tmp_path / "hashes.json").read_text())
    want = {c: {**pins(c), **X86_V3_MOVED.get(c, {})} for c in GOLDEN}
    assert got == want, f"X86_V3 output bytes moved:\n{fingerprint}"
