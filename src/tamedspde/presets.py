"""Named experiment presets.

``paper7-beta5``     weak-convergence study at epsilon = 0.01 with the
                     moderate taming weight beta = 5, step sizes 2^-8
                     down to 2^-12 against a reference at 2^-14.
``paper7-beta100``   the beta^alpha = 1/epsilon regime (beta = 100), with
                     coarser step sizes 2^-5 .. 2^-9; every step size is
                     admissible for the certified constants.
``paper7-beta5-ci``  reduced variant for quick continuous-integration
                     runs: 200 samples, levels 8..11, reference at 2^-12.
``interface-eps2``   mean interface profiles at epsilon = 0.01,
                     tau = 2^-10, 1000 samples.
``interface-eps3``   same at epsilon = 0.001.
"""

from __future__ import annotations

from dataclasses import replace

from .config import ExperimentConfig

__all__ = ["PRESETS"]

_BASE = ExperimentConfig()

PRESETS: dict[str, ExperimentConfig] = {
    "paper7-beta5": replace(_BASE, directory="runs/paper7-beta5"),
    # the strong-taming regime shifts the whole norm distribution by
    # several bins, which saturates the nodal-scale observable; the
    # function-space norm resolves its decay (see the step-observable
    # docstring), so this preset pins phi_norm = l2
    "paper7-beta100": replace(
        _BASE,
        beta=100.0,
        tau_levels=(5, 6, 7, 8, 9),
        phi_norm="l2",
        directory="runs/paper7-beta100",
    ),
    "paper7-beta5-ci": replace(
        _BASE,
        n_samples=200,
        tau_levels=(8, 9, 10, 11),
        fine_level=12,
        directory="runs/paper7-beta5-ci",
    ),
    "interface-eps2": replace(
        _BASE,
        tau_levels=(10,),
        fine_level=10,
        directory="runs/interface-eps2",
    ),
    "interface-eps3": replace(
        _BASE,
        epsilon=0.001,
        tau_levels=(10,),
        fine_level=10,
        directory="runs/interface-eps3",
    ),
}
