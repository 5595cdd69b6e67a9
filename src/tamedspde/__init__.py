"""Tamed exponential time stepping for stochastic Allen-Cahn equations
driven by space-time white noise, with the Monte-Carlo machinery for
weak-convergence, moment-bound, and interface-capturing experiments.
"""

__version__ = "0.1.0"

from .analysis import (
    ErrorRow,
    ErrorTable,
    MomentReport,
    ProfileSet,
    PropertyReport,
    RateFit,
    StepTestFunction,
    fit_convergence_rate,
    interface_profile,
    moment_sup_estimate,
    property_suite,
    weak_error_table,
    weak_errors_shared_reference,
)
from .config import ConfigError, ExperimentConfig
from .drift import (
    ALLEN_CAHN,
    DriftConstants,
    DriftDerivationError,
    DriftSpec,
    StepSizeVerdict,
    TamingParams,
    derive_growth_constants,
    f_delta_eval,
    f_delta_prime_eval,
    f_eval,
    f_prime_eval,
    f_tau_eval,
    step_size_condition,
)
from .engine import (
    BlowUpError,
    RunOutput,
    SchemeConfig,
    SchemeKind,
    sweep_ensemble,
)
from .noise import (
    NoisePlan,
    conv_dw_covariance,
    conv_variance,
)
from .presets import PRESETS, preset
from .spectral import SineBasis, default_initial

__all__ = [
    "__version__",
    "ALLEN_CAHN",
    "BlowUpError",
    "ConfigError",
    "DriftConstants",
    "DriftDerivationError",
    "DriftSpec",
    "ErrorRow",
    "ErrorTable",
    "ExperimentConfig",
    "MomentReport",
    "NoisePlan",
    "PRESETS",
    "ProfileSet",
    "PropertyReport",
    "RateFit",
    "RunOutput",
    "SchemeConfig",
    "SchemeKind",
    "SineBasis",
    "StepSizeVerdict",
    "StepTestFunction",
    "TamingParams",
    "conv_dw_covariance",
    "conv_variance",
    "default_initial",
    "derive_growth_constants",
    "f_delta_eval",
    "f_delta_prime_eval",
    "f_eval",
    "f_prime_eval",
    "f_tau_eval",
    "fit_convergence_rate",
    "interface_profile",
    "moment_sup_estimate",
    "preset",
    "property_suite",
    "step_size_condition",
    "sweep_ensemble",
    "weak_error_table",
    "weak_errors_shared_reference",
]
