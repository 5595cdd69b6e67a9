"""Experiment configuration: a sectioned key-value file with a canonical
serialization, so parse -> serialize -> parse is the identity and a saved
resolved config replays a run byte-for-byte.
"""

from __future__ import annotations

import configparser
import io
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

__all__ = ["ExperimentConfig", "ConfigError", "format_float"]


class ConfigError(ValueError):
    """Configuration validation failure; the message names the field path."""


def format_float(x: float) -> str:
    """Canonical float text: 17 significant digits, '.' separator."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters.

    ``tau_levels`` lists k with step sizes tau = horizon / 2^k; the
    reference integrator runs at the fine level (M = 2^fine_level steps).
    The interface and moments sections only matter to their subcommands;
    the moments tau level is absolute (tau = 2^-tau_level) so the step
    size stays fixed while the horizon doubles.
    """

    # model
    epsilon: float = 0.01
    q: int = 2
    leading: float = 1.0
    f0_coeffs: tuple[float, ...] = (0.0, 1.0)
    # discretization
    n_modes: int = 64
    horizon: float = 1.0
    tau_levels: tuple[int, ...] = (8, 9, 10, 11, 12)
    fine_level: int = 14
    # taming
    alpha: float = 1.0
    beta: float = 5.0
    theta: float = 0.5
    # sampling
    n_samples: int = 1000
    master_seed: int = 20250811
    coupled: bool = True
    phi_norm: str = "nodal"
    # outputs
    directory: str = "runs/out"
    # interface subcommand
    interface_times: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
    interface_epsilons: tuple[float, ...] = ()
    # moments subcommand
    moments_horizons: tuple[float, ...] = (1.0, 2.0)
    moments_n_samples: int = 100
    moments_tau_level: int = 10

    def validate(self) -> "ExperimentConfig":
        def bad(path, msg):
            raise ConfigError(f"{path}: {msg}")

        if not 0 < self.epsilon <= 1:
            bad("model.epsilon", f"must lie in (0, 1], got {self.epsilon}")
        if self.q < 2 or int(self.q) != self.q:
            bad("model.q", f"must be an integer >= 2, got {self.q}")
        if not self.leading > 0:
            bad("model.leading", f"must be > 0, got {self.leading}")
        if len(self.f0_coeffs) > 2 * self.q - 1:
            bad("model.f0_coeffs", f"degree must be <= 2q-2 = {2 * self.q - 2}")
        if self.n_modes < 1:
            bad("discretization.n_modes", f"must be >= 1, got {self.n_modes}")
        if not self.horizon > 0:
            bad("discretization.horizon", f"must be > 0, got {self.horizon}")
        # the paper7 presets' reference grid, 2^14 fine steps, is the
        # finest one supported
        if not 0 <= self.fine_level <= 14:
            bad("discretization.fine_level",
                f"must lie in 0..14, got {self.fine_level}")
        if not self.tau_levels:
            bad("discretization.tau_levels", "must list at least one level")
        if any(k < 0 or k > self.fine_level for k in self.tau_levels):
            bad("discretization.tau_levels",
                f"levels must lie in 0..fine_level={self.fine_level}, "
                f"got {self.tau_levels}")
        if list(self.tau_levels) != sorted(set(self.tau_levels)):
            bad("discretization.tau_levels", "levels must be strictly increasing")
        if not (self.alpha > 0 and self.beta > 0 and self.theta > 0):
            bad("taming", "alpha, beta, theta must all be > 0")
        if not self.alpha * self.theta < 1:
            bad("taming.alpha",
                f"need alpha * theta < 1, got {self.alpha * self.theta}")
        if self.n_samples < 2:
            bad("sampling.n_samples", f"must be >= 2, got {self.n_samples}")
        if self.phi_norm not in ("nodal", "l2", "sup"):
            bad("sampling.phi_norm",
                f"must be one of nodal, l2, sup; got {self.phi_norm!r}")
        for eps in self.interface_epsilons:
            if not 0 < eps <= 1:
                bad("interface.epsilons",
                    f"each must lie in (0, 1], got {eps}")
        if self.moments_n_samples < 2:
            bad("moments.n_samples",
                f"must be >= 2, got {self.moments_n_samples}")
        for t in self.moments_horizons:
            steps = t * 2**self.moments_tau_level
            n = int(round(steps))
            if abs(steps - n) > 1e-9 or n < 1 or (n & (n - 1)):
                bad("moments.horizons",
                    f"horizon {t} must give a power-of-two number of steps "
                    f"of tau = 2^-{self.moments_tau_level}, got {steps}")
            # each horizon's sweep runs its own fine grid of n steps
            if n > 2**14:
                bad("moments.tau_level",
                    f"horizon {t} at tau = 2^-{self.moments_tau_level} needs "
                    f"fine level {n.bit_length() - 1}, above the supported 14")
        return self

    # -- serialization ------------------------------------------------------

    _SECTIONS = {
        "model": ("epsilon", "q", "leading", "f0_coeffs"),
        "discretization": ("n_modes", "horizon", "tau_levels", "fine_level"),
        "taming": ("alpha", "beta", "theta"),
        "sampling": ("n_samples", "master_seed", "coupled", "phi_norm"),
        "outputs": ("directory",),
        "interface": ("interface_times", "interface_epsilons"),
        "moments": ("moments_horizons", "moments_n_samples", "moments_tau_level"),
    }

    def _encode(self, name: str) -> str:
        val = getattr(self, name)
        if isinstance(val, bool):
            return "true" if val else "false"
        if isinstance(val, float):
            return format_float(val)
        if isinstance(val, tuple):
            return " ".join(
                format_float(v) if isinstance(v, float) else str(v) for v in val
            )
        return str(val)

    def to_ini(self) -> str:
        buf = io.StringIO()
        for section, names in self._SECTIONS.items():
            buf.write(f"[{section}]\n")
            for name in names:
                buf.write(f"{_key_of(name)} = {self._encode(name)}\n")
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        values: dict = {}
        for section, names in cls._SECTIONS.items():
            if not parser.has_section(section):
                continue
            for name in names:
                if parser.has_option(section, _key_of(name)):
                    values[name] = _decode(name, parser.get(section, _key_of(name)))
        unknown = []
        for section in parser.sections():
            known = {_key_of(n) for n in cls._SECTIONS.get(section, ())}
            unknown += [f"{section}.{k}" for k in parser.options(section)
                        if k not in known]
        if unknown:
            raise ConfigError(f"unknown option(s): {', '.join(unknown)}")
        return cls(**values).validate()

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".json":
            data = json.loads(text)
            if not isinstance(data, dict) or "resolved_config" not in data:
                raise ConfigError(f"{path}: JSON config must be a run manifest "
                                  "with a resolved_config entry")
            text = data["resolved_config"]
        return cls.from_ini(text)

    def with_override(self, path: str, value: str) -> "ExperimentConfig":
        """Apply one 'section.key' = value command-line override."""
        parts = path.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override path {path!r} must look like section.key")
        section, key = parts
        for name in self._SECTIONS.get(section, ()):
            if _key_of(name) == key:
                return replace(self, **{name: _decode(name, value)})
        raise ConfigError(f"unknown option {section}.{key}")


# field name -> key name inside its section (strip the section prefix)
_KEY_BY_FIELD = {
    "interface_times": "times",
    "interface_epsilons": "epsilons",
    "moments_horizons": "horizons",
    "moments_n_samples": "n_samples",
    "moments_tau_level": "tau_level",
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _key_of(name: str) -> str:
    return _KEY_BY_FIELD.get(name, name)


def _decode(name: str, text: str):
    text = text.strip()
    kind = _FIELD_TYPES[name]
    try:
        if kind == "bool":
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"expected true/false, got {text!r}")
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "tuple[int, ...]":
            return tuple(int(tok) for tok in text.split())
        if kind == "tuple[float, ...]":
            return tuple(float(tok) for tok in text.split())
        return text
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
