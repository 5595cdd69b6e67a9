"""Golden bytes: the sha256 of every CSV and JSON side output from four
tiny CLI runs, and of the admissibility list in the manifests of the two
runs that write one.

The sizes cover the noise layout's edge cases: a fine level of 10
(256 4-step noise windows, coarse ratios 512, 16 and 4, so one coarse
step spans 128 windows), fine levels of 7 and 6 (32 windows and 16), and
a 300-sample run at two threads (two sample chunks in the thread pool;
the second, of 44 samples, is one Box-Muller block of 44).

The hashes were recorded with numpy 2.4 and OpenBLAS 0.3.31 on an x86-64
CPU with AVX-512.  libm and the SIMD kernels may differ in the last bit on
other machines, so a mismatch prints this machine's numpy, BLAS and SIMD
fingerprint.  Re-pinning a hash needs a CHANGES.md entry that says why the
bits moved.
"""

import hashlib
import json

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
}

#: sha256 of ``json.dumps(manifest["admissibility"], sort_keys=True)``
ADMISSIBILITY = {
    "converge":
        "fa759684573112addf282a1e2df07adced4f484b407acc77830c8089ef08cf6c",
    "table1":
        "cfadf60f1585b9b3213642dba4258b795959829391e88e96905b6100254b387c",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_bytes_pinned(command, tmp_path, fingerprint):
    argv, pinned = GOLDEN[command]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    got = {name: sha256(tmp_path / name) for name in pinned}
    assert got == pinned, f"output bytes moved on this machine:\n{fingerprint}"
    if command in ADMISSIBILITY:
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entries = json.dumps(manifest["admissibility"], sort_keys=True)
        assert (hashlib.sha256(entries.encode()).hexdigest()
                == ADMISSIBILITY[command])
