"""The config table: pinned INI bytes, one named error per bad key, and a
property test of the whole command line over a grammar of overrides."""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tamedspde import ConfigError, ExperimentConfig, PRESETS
from tamedspde.cli import _build_parser, _resolve_config, main
from tamedspde.config import _FIELDS

#: sha256 of ``to_ini()`` per preset, recorded before the field table
#: replaced the annotation-string decoder; ``config.resolved.ini`` is
#: these bytes
INI_SHA256 = {
    "interface-eps2":
        "dacf6b0b2cff030b3979f8dc46f83f991066c20ddbc9142e251bb4e593d10da2",
    "interface-eps3":
        "7504eb9dadcd8a1bbb4b71ab5397586e348eb3823d2f970d0486565a032f243e",
    "paper7-beta100":
        "8242a892f2376d10bf523b301a89254467264746823efb58f3750ae13e42dd7d",
    "paper7-beta5":
        "8b0bdfef178f61d9eaa6c743821e8ec1bd0c6468499989c79b05153547af5808",
    "paper7-beta5-ci":
        "167952f457177b00fe819cd5787a3b686928b97f2c83506e2df741955e64d8a2",
}

KEYS = [f"{section}.{key}" for section, key, *_ in _FIELDS.values()]
CONFIG_ERROR = re.compile(r"^configuration error: ([a-z_]+\.[a-z_0-9]+): ",
                          re.MULTILINE)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_ini_bytes_pinned_and_roundtrip(name):
    cfg = PRESETS[name]
    text = cfg.to_ini()
    assert hashlib.sha256(text.encode()).hexdigest() == INI_SHA256[name]
    assert ExperimentConfig.from_ini(text) == cfg


def test_one_row_per_field_in_field_order():
    # the rows are the fields' metadata, so their order holds by construction
    assert len(set(KEYS)) == len(KEYS)


def test_benchmark_configs_match_pins():
    # each perfbench workload's command resolves to the config whose
    # config.resolved.ini bytes pins.json holds; no sweep runs
    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  root / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    pins = json.loads((root / "pins.json").read_text())
    for name, workload in run.WORKLOADS.items():
        args = _build_parser().parse_args(
            [*workload["args"], "--seed", str(pins["seed"]), "--out-dir", "out"])
        ini = _resolve_config(args).to_ini().encode()
        assert (hashlib.sha256(ini).hexdigest()
                == pins["hashes"][name]["config.resolved.ini"]), name


#: sizes under which a probe that is not rejected runs in about a second
TINY = ["--set", "model.epsilon=0.5", "--set", "discretization.n_modes=4",
        "--set", "discretization.fine_level=4",
        "--set", "discretization.tau_levels=2 3",
        "--set", "sampling.n_samples=2", "--set", "moments.n_samples=2",
        "--set", "moments.tau_level=2"]

PROBES = {
    "beta-inf": (["converge", "--set", "taming.beta=inf"], "taming.beta"),
    "horizon-inf": (["converge", "--set", "discretization.horizon=inf"],
                    "discretization.horizon"),
    # finite, but 2 lambda_N h overflows in the noise factors
    "horizon-huge": (["converge", "--set", "discretization.horizon=1e308"],
                     "discretization.horizon"),
    # valid fields, but the drift certifies no growth constants
    "leading-huge": (["converge", "--set", "model.leading=1e308"],
                     "model.leading"),
    "leading-huge-table1": (["table1", "--set", "model.leading=1e308"],
                            "model.leading"),
    "times-empty": (["interface", "--set", "interface.times="],
                    "interface.times"),
    "horizons-empty": (["moments", "--set", "moments.horizons="],
                       "moments.horizons"),
    "n-modes-huge": (["converge", "--set", "discretization.n_modes=100000"],
                     "discretization.n_modes"),
    "seed-negative": (["converge", "--set", "sampling.master_seed=-5"],
                      "sampling.master_seed"),
    "seed-flag-negative": (["converge", "--seed", "-1"],
                           "sampling.master_seed"),
    "times-unparsable": (["interface", "--set", "interface.times=0 a"],
                         "interface.times"),
    "n-samples-unparsable": (["moments", "--set", "moments.n_samples=2.5"],
                             "moments.n_samples"),
    "coupled-unparsable": (["converge", "--set", "sampling.coupled=maybe"],
                           "sampling.coupled"),
    "times-off-grid": (["interface", "--preset", "interface-eps2",
                        "--set", "interface.times=0.0 0.3"],
                       "interface.times"),
    "times-past-horizon": (["interface", "--preset", "interface-eps2",
                            "--set", "interface.times=0.0 2.0"],
                           "interface.times"),
    # a repeated time wrote its profile rows twice, and a repeated
    # horizon ran its sweep twice and reported a growth ratio of 1
    "times-repeated": (["interface", *TINY,
                        "--set", "interface.times=0.5 0.5"],
                       "interface.times"),
    "horizons-repeated": (["moments", *TINY,
                           "--set", "moments.horizons=0.5 0.5"],
                          "moments.horizons"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_bad_config_exits_one_naming_its_key(probe, tmp_path, capsys):
    argv, key = PROBES[probe]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}: "), err
    assert not out.exists()


def test_uncertifiable_drift_fails_without_numpy_warnings(tmp_path, capsys):
    # the certification grid overflows for this drift; the named error is
    # the only report
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["converge", "--set", "model.leading=1e308",
                     "--out-dir", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith(
        "configuration error: model.leading: ")


def test_empty_epsilons_and_f0_coeffs_stay_legal():
    cfg = replace(ExperimentConfig(), interface_epsilons=(), f0_coeffs=())
    assert cfg.validate() is cfg
    assert ExperimentConfig.from_ini(cfg.to_ini()) == cfg


def test_non_finite_float_in_a_tuple_rejected():
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ConfigError, match="model.f0_coeffs: must be finite"):
            replace(ExperimentConfig(), f0_coeffs=(0.0, bad)).validate()


# -- property test ------------------------------------------------------------

#: tiny sizes every drawn config starts from; epsilon = 0.5 keeps the
#: fine-level-4 reference stable
BASE = [*TINY, "--set", "interface.times=0 0.5 1"]
#: ordinary values per key, at tiny sizes, plus values just outside the
#: domain; the edge values below are drawn for every key
ORDINARY = {
    "model.epsilon": ["0.05", "1", "2"],
    "model.q": ["2", "3", "1"],
    "model.leading": ["1", "0.5"],
    "model.f0_coeffs": ["0 1", "-1", "0 1 2 3"],
    "discretization.n_modes": ["2", "8", "4097", "100000"],
    "discretization.horizon": ["1", "0.5", "4"],
    "discretization.tau_levels": ["2 3", "3 2", "1 2 3", "6", "2 2"],
    "discretization.fine_level": ["4", "6", "15", "99"],
    "taming.alpha": ["0.5", "0.25", "3"],
    "taming.beta": ["5", "100"],
    "taming.theta": ["0.5", "2"],
    "sampling.n_samples": ["2", "4"],
    "sampling.master_seed": ["7", "123456789012345678901234567890"],
    "sampling.coupled": ["false", "true", "maybe"],
    "sampling.phi_norm": ["l2", "sup", "h1"],
    "outputs.directory": ["elsewhere"],
    "interface.times": ["0 1", "0.3", "0 0.5 0.5", "2"],
    "interface.epsilons": ["0.05", "0.05 0.1", "2"],
    "moments.horizons": ["0.5 1", "3", "0.25"],
    "moments.n_samples": ["2", "4", "2.5"],
    "moments.tau_level": ["2", "3", "14", "99"],
}
EDGE = ["inf", "-inf", "nan", "-1", "0", "1e308", ""]
COMMANDS = ["converge", "table1", "interface", "moments", "verify"]

overrides = st.lists(
    st.sampled_from(sorted(ORDINARY)).flatmap(
        lambda key: st.tuples(st.just(key),
                              st.sampled_from(ORDINARY[key] + EDGE))),
    max_size=3,
)


def expected_error(items) -> str | None:
    """The key the config layer rejects ``--set`` items by, or None."""
    cfg = PRESETS["paper7-beta5"]
    try:
        for item in items:
            path, _, value = item.partition("=")
            cfg = cfg.with_override(path, value)
        cfg.validate()
    except ConfigError as exc:
        return str(exc).split(":")[0]
    return None


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(COMMANDS), drawn=overrides)
def test_any_override_exits_with_a_documented_code(command, drawn):
    sets = [arg for key, value in drawn
            for arg in ("--set", f"{key}={value}")]
    # outputs.directory is overridden by --out-dir below
    rejected = expected_error(BASE[1::2] + sets[1::2])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main([command, *BASE, *sets, "--out-dir", str(out)])
        assert code in (0, 1, 2, 3)
        named = CONFIG_ERROR.search(stderr.getvalue())
        if rejected is not None:
            assert code == 1
            assert named is not None and named.group(1) == rejected
        if named is not None:
            assert code == 1 and named.group(1) in KEYS
            assert not out.exists()
