"""Experiment configuration: a sectioned key-value file with a canonical
serialization, so parse -> serialize -> parse is the identity and a saved
resolved config replays a run byte-for-byte.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

__all__ = ["ExperimentConfig", "ConfigError", "format_float", "format_value"]


class ConfigError(ValueError):
    """Configuration validation failure; the message names its section.key."""


def format_float(x: float) -> str:
    """Canonical float text: 17 significant digits, '.' separator."""
    return format(float(x), ".17g")


def format_value(value) -> str:
    """Canonical text of a config value or CSV cell: true/false, decimal
    integers, ``format_float``, and a tuple's items joined by spaces."""
    if isinstance(value, tuple):
        return " ".join(format_value(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer, str)):
        return str(value)
    return format_float(value)


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


#: the finest fine grid, 2^14 steps: the paper7 presets' reference grid
_MAX_FINE_LEVEL = 14

#: (requirement, check) pairs that several fields share
_POSITIVE = ("must be > 0", lambda v: v > 0)
_AT_LEAST_TWO = ("must be >= 2", lambda v: v >= 2)
_LEVEL = (f"must lie in 0..{_MAX_FINE_LEVEL}",
          lambda v: 0 <= v <= _MAX_FINE_LEVEL)


def _option(default, section: str, key: str, parser, requirement: str = "",
            check=None):
    """A field stored as ``key`` in ``[section]`` and read by ``parser``.
    ``validate`` first requires every float of its value, alone or in a
    tuple, to be finite, then ``check(value)`` to hold; the cross-field
    conditions stay in ``validate``."""
    return field(default=default, metadata={
        "row": (section, key, parser, requirement, check)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters.

    ``tau_levels`` lists k with step sizes tau = horizon / 2^k; the
    reference integrator runs at the fine level (M = 2^fine_level steps).
    The interface and moments sections only matter to their subcommands;
    the moments tau level is absolute (tau = 2^-tau_level) so the step
    size stays fixed while the horizon doubles.
    """

    epsilon: float = _option(0.01, "model", "epsilon", float,
                             "must lie in (0, 1]", lambda v: 0 < v <= 1)
    q: int = _option(2, "model", "q", int, "must be an integer >= 2",
                     lambda v: int(v) == v >= 2)
    leading: float = _option(1.0, "model", "leading", float, *_POSITIVE)
    f0_coeffs: tuple[float, ...] = _option((0.0, 1.0), "model", "f0_coeffs",
                                           _floats)
    # the dense N x N sine transform is 128 MB at N = 4096
    n_modes: int = _option(64, "discretization", "n_modes", int,
                           "must lie in 1..4096", lambda v: 1 <= v <= 4096)
    horizon: float = _option(1.0, "discretization", "horizon", float,
                             *_POSITIVE)
    tau_levels: tuple[int, ...] = _option(
        (8, 9, 10, 11, 12), "discretization", "tau_levels", _ints,
        "must list strictly increasing levels >= 0",
        lambda v: v and v[0] >= 0 and list(v) == sorted(set(v)))
    fine_level: int = _option(14, "discretization", "fine_level", int,
                              *_LEVEL)
    alpha: float = _option(1.0, "taming", "alpha", float, *_POSITIVE)
    beta: float = _option(5.0, "taming", "beta", float, *_POSITIVE)
    theta: float = _option(0.5, "taming", "theta", float, *_POSITIVE)
    n_samples: int = _option(1000, "sampling", "n_samples", int,
                             *_AT_LEAST_TWO)
    master_seed: int = _option(20250811, "sampling", "master_seed", int,
                               "must be >= 0", lambda v: v >= 0)
    coupled: bool = _option(True, "sampling", "coupled", _bool)
    phi_norm: str = _option("nodal", "sampling", "phi_norm", str,
                            "must be one of nodal, l2",
                            lambda v: v in ("nodal", "l2"))
    directory: str = _option("runs/out", "outputs", "directory", str)
    # a repeated time or horizon would write its rows or its sweep twice
    interface_times: tuple[float, ...] = _option(
        (0.0, 0.25, 0.5, 1.0), "interface", "times", _floats,
        "must list distinct times, at least one",
        lambda v: v and len(set(v)) == len(v))
    interface_epsilons: tuple[float, ...] = _option(
        (), "interface", "epsilons", _floats, "each must lie in (0, 1]",
        lambda v: all(0 < e <= 1 for e in v))
    moments_horizons: tuple[float, ...] = _option(
        (1.0, 2.0), "moments", "horizons", _floats,
        "must list distinct horizons > 0, at least one",
        lambda v: v and min(v) > 0 and len(set(v)) == len(v))
    moments_n_samples: int = _option(100, "moments", "n_samples", int,
                                     *_AT_LEAST_TWO)
    # tau = 2^-tau_level, no finer than the finest fine grid
    moments_tau_level: int = _option(10, "moments", "tau_level", int, *_LEVEL)

    def validate(self) -> "ExperimentConfig":
        """Check each row of ``_FIELDS``, then the cross-field conditions."""
        for name, (section, key, _, requirement, check) in _FIELDS.items():
            value = getattr(self, name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"{section}.{key}: must be finite, got {value!r}")
            if check is not None and not check(value):
                raise ConfigError(f"{section}.{key}: {requirement}, got {value!r}")

        def bad(path, msg):
            raise ConfigError(f"{path}: {msg}")

        if not math.isfinite(2 * (self.n_modes * math.pi) ** 2 * self.horizon):
            bad("discretization.horizon",
                f"2 (n_modes pi)^2 horizon must be finite, got {self.horizon}")
        if len(self.f0_coeffs) > 2 * self.q - 1:
            bad("model.f0_coeffs", f"degree must be <= 2q-2 = {2 * self.q - 2}")
        if self.tau_levels[-1] > self.fine_level:
            bad("discretization.tau_levels",
                f"levels must lie in 0..fine_level={self.fine_level}, "
                f"got {self.tau_levels}")
        if not self.alpha * self.theta < 1:
            bad("taming.alpha",
                f"need alpha * theta < 1, got {self.alpha * self.theta}")
        for t, level in zip(self.moments_horizons, self.moments_levels):
            steps = t * 2.0**self.moments_tau_level
            if steps != 2.0**level or steps < 1:
                bad("moments.horizons",
                    f"horizon {t} must give a power-of-two number of steps "
                    f"of tau = 2^-{self.moments_tau_level}, got {steps}")
            # each horizon's sweep runs its own fine grid of 2^level steps
            if level > _MAX_FINE_LEVEL:
                bad("moments.tau_level",
                    f"horizon {t} at tau = 2^-{self.moments_tau_level} needs "
                    f"fine level {level}, above the supported "
                    f"{_MAX_FINE_LEVEL}")
        return self

    @property
    def moments_levels(self) -> tuple[int, ...]:
        """Each horizon's level k: 2^k steps of 2^-tau_level once validated."""
        return tuple(math.frexp(t * 2.0**self.moments_tau_level)[1] - 1
                     for t in self.moments_horizons)

    # -- serialization ------------------------------------------------------

    def to_ini(self) -> str:
        buf = io.StringIO()
        for section, rows in groupby(_FIELDS.items(), lambda row: row[1][0]):
            buf.write(f"[{section}]\n")
            for name, (_, key, *_) in rows:
                buf.write(f"{key} = {format_value(getattr(self, name))}\n")
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        values = {
            name: _parse(name, parser.get(section, key))
            for name, (section, key, *_) in _FIELDS.items()
            if parser.has_option(section, key)
        }
        known = {(section, key) for section, key, *_ in _FIELDS.values()}
        unknown = [f"{section}.{key}" for section in parser.sections()
                   for key in parser.options(section)
                   if (section, key) not in known]
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
        if path.count(".") != 1:
            raise ConfigError(f"override path {path!r} must look like section.key")
        for name, (section, key, *_) in _FIELDS.items():
            if path == f"{section}.{key}":
                return replace(self, **{name: _parse(name, value)})
        raise ConfigError(f"unknown option {path}")


#: field -> (section, key, parser, requirement, check), in file order
_FIELDS = {f.name: f.metadata["row"] for f in fields(ExperimentConfig)}


def _parse(name: str, text: str):
    section, key, parser, *_ = _FIELDS[name]
    try:
        return parser(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None
