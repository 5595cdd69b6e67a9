"""Configuration round-trips, subcommands, CSV contracts, exit codes."""

import hashlib
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tamedspde import ConfigError, ExperimentConfig, PRESETS
from tamedspde import analysis
from tamedspde import cli
from tamedspde import drift as drift_mod
from tamedspde.cli import main
from tamedspde.config import format_float


TINY = [
    "--set", "discretization.n_modes=16",
    "--set", "discretization.tau_levels=5 6 7",
    "--set", "discretization.fine_level=8",
    "--set", "sampling.n_samples=24",
    "--set", "model.epsilon=0.05",
]


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_roundtrip_default(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_ini(cfg.to_ini()) == cfg

    def test_roundtrip_modified(self):
        cfg = replace(
            ExperimentConfig(),
            epsilon=0.001, tau_levels=(3, 5, 9), f0_coeffs=(0.25, -1.5),
            coupled=False, directory="some/dir", interface_epsilons=(0.01,),
            phi_norm="l2",
        )
        assert ExperimentConfig.from_ini(cfg.to_ini()) == cfg

    def test_unknown_key_rejected(self):
        text = ExperimentConfig().to_ini().replace(
            "[model]\n", "[model]\nwhatever = 3\n"
        )
        with pytest.raises(ConfigError, match="model.whatever"):
            ExperimentConfig.from_ini(text)

    def test_validation_paths(self):
        with pytest.raises(ConfigError, match="model.epsilon"):
            replace(ExperimentConfig(), epsilon=2.0).validate()
        with pytest.raises(ConfigError, match="discretization.tau_levels"):
            replace(ExperimentConfig(), tau_levels=(15,)).validate()
        with pytest.raises(ConfigError, match="taming.alpha"):
            replace(ExperimentConfig(), alpha=3.0).validate()
        with pytest.raises(ConfigError, match="sampling.phi_norm"):
            replace(ExperimentConfig(), phi_norm="h1").validate()

    @pytest.mark.parametrize("level", [-1, 15, 20])
    def test_unsupported_fine_level_exits_one(self, level, tmp_path, capsys):
        code = run_cli("converge", "--preset", "paper7-beta5-ci",
                       "--set", f"discretization.fine_level={level}",
                       "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "discretization.fine_level" in err
        assert f"must lie in 0..14, got {level}" in err
        assert not (tmp_path / "errors.csv").exists()

    def test_fine_level_bounds_accepted(self):
        for level in (0, 14):
            cfg = replace(ExperimentConfig(), fine_level=level, tau_levels=(0,))
            assert cfg.validate() is cfg

    def test_override(self):
        cfg = ExperimentConfig().with_override("taming.beta", "100")
        assert cfg.beta == 100.0
        with pytest.raises(ConfigError, match="unknown option"):
            ExperimentConfig().with_override("taming.gamma", "1")

    def test_presets_exist(self):
        assert set(PRESETS) == {
            "paper7-beta5", "paper7-beta100", "paper7-beta5-ci",
            "interface-eps2", "interface-eps3",
        }
        for cfg in PRESETS.values():
            cfg.validate()

    def test_preset_parameters(self):
        beta100 = PRESETS["paper7-beta100"]
        assert beta100.beta == 100.0
        assert beta100.tau_levels == (5, 6, 7, 8, 9)
        assert beta100.phi_norm == "l2"
        assert PRESETS["paper7-beta5"].phi_norm == "nodal"
        eps3 = PRESETS["interface-eps3"]
        assert eps3.epsilon == 0.001
        assert eps3.tau_levels == (10,)
        ci = PRESETS["paper7-beta5-ci"]
        assert ci.n_samples == 200
        assert ci.fine_level == 12


class TestVerifyCommand:
    def test_passes_on_default_drift(self, tmp_path, capsys):
        code = run_cli("verify", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"]
        assert report["constants"]["certified"]
        assert report["constants"]["c0"] == 0.5
        assert len(report["checks"]) == 5
        assert all(c["n_samples"] > 0 for c in report["checks"])
        assert "property suite passed" in capsys.readouterr().out

    def test_uncertified_drift_reported(self, tmp_path):
        # converge and table1 reject this drift as a config error; verify
        # reports it
        code = run_cli("verify", "--set", "model.leading=1e308",
                       "--out-dir", str(tmp_path))
        assert code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["constants"]["certified"] is False
        assert not report["all_passed"]

    def test_overflowing_drift_fails_every_drift_check_silently(
            self, tmp_path, capsys):
        # the fitted growth constant overflows to inf and the margins to
        # NaN; none may read as a pass, and numpy may not warn about it.
        # The power-mean inequality does not involve the drift
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("verify", "--set", "model.leading=1e308",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert [str(w.message) for w in caught] == []
        # the same bytes at numpy's AVX-512 and X86_V3 dispatch levels
        raw = (tmp_path / "verify_report.json").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "7f4433d3097f653d7486c07401be4c19ba387bf3e6aef8857be09b5494443a17")
        report = json.loads(raw)
        status = {c["name"]: c["passed"] for c in report["checks"]}
        assert status == {
            "taming_domination": False, "taming_gap": False,
            "one_sided_delta_derivative": False,
            "delta_derivative_growth": False, "power_mean_inequality": True,
        }
        out = capsys.readouterr().out
        assert "delta_derivative_growth: FAIL" in out
        assert "RuntimeWarning" not in out

    def test_broken_taming_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            drift_mod, "_taming_denominator",
            lambda x, alpha, out=None: np.full_like(np.asarray(x, dtype=float),
                                                    0.5),
        )
        code = run_cli("verify", "--out-dir", str(tmp_path))
        assert code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        bad = next(c for c in report["checks"]
                   if c["name"] == "taming_domination")
        assert not bad["passed"]
        assert "u" in bad["counterexample"]


class TestConvergeCommand:
    def test_tiny_run_schema_and_replay(self, tmp_path):
        out1 = tmp_path / "a"
        code = run_cli("converge", *TINY, "--out-dir", str(out1))
        assert code == 0
        csv = (out1 / "errors.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == ("level,tau,weak_error,mc_halfwidth,n_samples,"
                            "admissible,admissibility_ratio")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "5"
        assert first[1] == format_float(2.0**-5)
        assert first[5] in ("true", "false")
        # every float cell reparses to a value that reformats identically
        for line in lines[1:]:
            for cell in line.split(",")[1:5]:
                assert format_float(float(cell)) == cell

        fit = json.loads((out1 / "rate_fit.json").read_text())
        assert {"slope", "intercept", "residual", "n_rows"} <= set(fit)

        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "converge"
        assert len(manifest["admissibility"]) == 3
        blas = manifest["blas"]
        if blas["library"] is not None:    # the kernel the bytes came from
            assert isinstance(blas["core"], str) and blas["core"]

        # byte-identical replay from the resolved config, more threads
        out2 = tmp_path / "b"
        code = run_cli(
            "converge", "--config", str(out1 / "config.resolved.ini"),
            "--out-dir", str(out2), "--threads", "4",
        )
        assert code == 0
        assert (out2 / "errors.csv").read_bytes() == (out1 / "errors.csv").read_bytes()

    def test_manifest_is_a_valid_config_source(self, tmp_path):
        out1 = tmp_path / "a"
        assert run_cli("converge", *TINY, "--out-dir", str(out1)) == 0
        out2 = tmp_path / "b"
        assert run_cli(
            "converge", "--config", str(out1 / "manifest.json"),
            "--out-dir", str(out2),
        ) == 0
        assert (out2 / "errors.csv").read_bytes() == (out1 / "errors.csv").read_bytes()

    def test_single_tau_refuses_fit(self, tmp_path, capsys):
        # one step size, and three whose weak errors are all 0 (the l2
        # radii of both runs share a bin): the fit is refused, the run
        # still finishes
        runs = {
            "single": ("--set", "discretization.n_modes=16",
                       "--set", "discretization.tau_levels=6",
                       "--set", "discretization.fine_level=8",
                       "--set", "sampling.n_samples=8",
                       "--set", "model.epsilon=0.05"),
            "zero": ("--preset", "paper7-beta5-ci", "--seed", "1",
                     "--set", "sampling.n_samples=2",
                     "--set", "sampling.phi_norm=l2",
                     "--set", "discretization.fine_level=8",
                     "--set", "discretization.tau_levels=6 7 8"),
        }
        for run, argv in runs.items():
            out = tmp_path / run
            assert run_cli("converge", *argv, "--out-dir", str(out)) == 0, run
            assert "rate fit refused: needs" in capsys.readouterr().out, run
            assert not (out / "rate_fit.json").exists(), run
            for name in ("errors.csv", "manifest.json", "config.resolved.ini"):
                assert (out / name).exists(), (run, name)

    def test_uncoupled_mode_runs(self, tmp_path):
        code = run_cli("converge", *TINY, "--set", "sampling.coupled=false",
                       "--set", "sampling.n_samples=16",
                       "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "errors.csv").read_text().strip().split("\n")[1:]
        assert all(np.isfinite(float(r.split(",")[2])) for r in rows)

    def test_bad_config_exits_one(self, tmp_path, capsys):
        code = run_cli("converge", "--set", "model.epsilon=7",
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert "model.epsilon" in capsys.readouterr().err

    def test_conflicting_sources_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text(ExperimentConfig().to_ini())
        code = run_cli("converge", "--preset", "paper7-beta5",
                       "--config", str(cfg_file))
        assert code == 1

    def test_blowup_report_independent_of_threads(self, tmp_path, capsys):
        # 300 samples are one chunk of 256 at one thread and three of 100
        # at three; the first chunk of three blows later than sample 127
        reports = []
        for threads in (1, 3):
            code = run_cli(
                "converge", "--seed", "6",
                "--set", "model.epsilon=0.0024", "--set", "taming.beta=1e-6",
                "--set", "discretization.n_modes=8",
                "--set", "discretization.fine_level=10",
                "--set", "discretization.tau_levels=8 10",
                "--set", "sampling.n_samples=300",
                "--threads", str(threads),
                "--out-dir", str(tmp_path / str(threads)),
            )
            assert code == 2
            assert not (tmp_path / str(threads)).exists()
            reports.append(capsys.readouterr().err)
        assert reports[0] == reports[1]
        assert "step 22, sample 127, run 0" in reports[0]


class TestTable1Command:
    def test_tiny_grid_shape(self, tmp_path):
        code = run_cli("table1", *TINY, "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "table1.csv").read_text().strip().split("\n")
        assert lines[0] == ("level,tau,err_alpha_1,err_alpha_1_2,"
                            "err_alpha_1_3,err_alpha_1_4")
        assert len(lines) == 4  # three tau levels
        assert all(len(line.split(",")) == 6 for line in lines[1:])
        fits = json.loads((tmp_path / "table1_fits.json").read_text())
        assert set(fits["monotone"]) == {
            "err_alpha_1", "err_alpha_1_2", "err_alpha_1_3", "err_alpha_1_4"
        }

    def test_uncoupled_bytes_pinned(self, tmp_path):
        # an uncoupled run draws scheme i's noise from plan.spawn(i + 1),
        # with i its position across all four alpha groups
        code = run_cli("table1", "--preset", "paper7-beta5-ci",
                       "--set", "sampling.n_samples=5",
                       "--set", "discretization.fine_level=7",
                       "--set", "discretization.tau_levels=4 5 6",
                       "--set", "sampling.coupled=false",
                       "--out-dir", str(tmp_path))
        assert code == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("table1.csv", "table1_fits.json")}
        assert got == {
            "table1.csv":
                "2bd6fbe97e2eee6469fc5a606bfadceff3be686b616d2f07d641f0a78a480d7c",
            "table1_fits.json":
                "01aa98ddf09aacf4ac632cd29de8572ed736d6da1332ab91443324dfb8e3634c",
        }


class TestInterfaceCommand:
    def test_profiles_schema(self, tmp_path):
        code = run_cli(
            "interface", "--preset", "interface-eps2",
            "--set", "sampling.n_samples=12",
            "--set", "interface.times=0.0 0.5 1.0",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "profiles_eps_0.01.csv").read_text().strip().split("\n")
        assert lines[0] == "time,node_index,x,mean_value"
        assert len(lines) == 1 + 3 * 64
        # the t = 0 rows are exactly sin(pi x_i)
        for i, line in enumerate(lines[1:65]):
            cells = line.split(",")
            assert cells[0] == format_float(0.0)
            assert int(cells[1]) == i + 1
            x = float(cells[2])
            assert float(cells[3]) == pytest.approx(np.sin(np.pi * x),
                                                    abs=1e-12)

    def test_two_epsilon_run_emits_two_file_sets(self, tmp_path):
        code = run_cli(
            "interface", "--preset", "interface-eps2",
            "--set", "sampling.n_samples=6",
            "--set", "interface.times=0.0 1.0",
            "--set", "interface.epsilons=0.01 0.001",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "profiles_eps_0.01.csv").exists()
        assert (tmp_path / "profiles_eps_0.001.csv").exists()

    def test_two_epsilons_one_sweep_same_bytes(self, tmp_path, monkeypatch):
        # both epsilons step in one sweep over the shared noise, and each
        # CSV equals the one a run of that epsilon alone writes
        sweeps = []
        sweep = analysis.sweep_ensemble
        monkeypatch.setattr(analysis, "sweep_ensemble",
                            lambda *a, **k: sweeps.append(a[0]) or sweep(*a, **k))
        base = ["interface", "--preset", "interface-eps2",
                "--set", "sampling.n_samples=6",
                "--set", "interface.times=0.0 0.5 1.0"]
        both = tmp_path / "both"
        assert run_cli(*base, "--set", "interface.epsilons=0.01 0.05",
                       "--out-dir", str(both)) == 0
        assert [len(runs) for runs in sweeps] == [2]
        for eps in ("0.01", "0.05"):
            alone = tmp_path / eps
            assert run_cli(*base, "--set", f"interface.epsilons={eps}",
                           "--out-dir", str(alone)) == 0
            name = f"profiles_eps_{eps}.csv"
            assert (both / name).read_bytes() == (alone / name).read_bytes()
        assert [len(runs) for runs in sweeps] == [2, 1, 1]

    def test_out_of_range_epsilon_rejected_before_any_sweep(self, tmp_path,
                                                           capsys):
        # the valid first entry must not be swept and written either
        code = run_cli(
            "interface", "--preset", "interface-eps2",
            "--set", "sampling.n_samples=6",
            "--set", "interface.epsilons=0.01 2",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "interface.epsilons" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("epsilons, name", [
        ("0.0123456789 0.01234568", "profiles_eps_0.0123457.csv"),
        ("0.01 0.01", "profiles_eps_0.01.csv"),
    ])
    def test_colliding_profile_names_rejected(self, epsilons, name, tmp_path,
                                              capsys):
        # two epsilons that format alike would overwrite one file
        out = tmp_path / "out"
        code = run_cli("interface", "--preset", "interface-eps2",
                       "--set", f"interface.epsilons={epsilons}",
                       "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: interface.epsilons: ")
        assert name in err
        assert not out.exists()

    @pytest.mark.parametrize("time", ["1e308", "-1e308"])
    def test_huge_time_is_off_the_grid(self, time, tmp_path, capsys):
        # its step count t / tau overflows to inf
        out = tmp_path / "out"
        code = run_cli("interface", "--preset", "interface-eps2",
                       "--set", f"interface.times=0 {time}",
                       "--out-dir", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: interface.times: ")
        assert not out.exists()

    def test_blowup_exits_two(self, tmp_path, capsys):
        code = run_cli(
            "interface", "--preset", "interface-eps3",
            "--set", "discretization.horizon=16",
            "--set", "discretization.tau_levels=8",
            "--set", "discretization.fine_level=8",
            "--set", "interface.times=0.0 16.0",
            "--set", "sampling.n_samples=8",
            "--seed", "20250811",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "blow-up" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMomentsCommand:
    def test_schema_and_growth_ratio(self, tmp_path):
        code = run_cli(
            "moments", "--set", "discretization.n_modes=16",
            "--set", "moments.horizons=0.5 1.0",
            "--set", "moments.n_samples=16",
            "--set", "moments.tau_level=6",
            "--set", "model.epsilon=0.05",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        for name in ("moments_T_0.5.csv", "moments_T_1.csv"):
            lines = (tmp_path / name).read_text().strip().split("\n")
            assert lines[0] == "time,mean_l2_sq,mean_l4_4,mean_sup"
            values = np.array([[float(c) for c in l.split(",")]
                               for l in lines[1:]])
            assert np.all(np.isfinite(values))
        # T = 0.5 steps on the same noise path as T = 1, so its CSV is a
        # prefix of the longer one, line for line
        short = (tmp_path / "moments_T_0.5.csv").read_text().splitlines()
        long = (tmp_path / "moments_T_1.csv").read_text().splitlines()
        assert len(short) < len(long)
        assert short == long[:len(short)]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["maxima"]) == 2
        assert len(manifest["growth_ratios"]) == 1
        ratio = manifest["growth_ratios"][0]["l2_sq_ratio"]
        assert ratio >= 1.0

    def test_manifest_replay_at_two_threads(self, tmp_path):
        # 257 samples: chunks of 256 and 1, so the replay runs the thread
        # pool and a one-row chunk
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(
            "moments", "--set", "discretization.n_modes=16",
            "--set", "moments.horizons=0.5 1.0",
            "--set", "moments.n_samples=257",
            "--set", "moments.tau_level=6",
            "--set", "model.epsilon=0.05",
            "--threads", "1", "--out-dir", str(out1),
        ) == 0
        assert run_cli(
            "moments", "--config", str(out1 / "manifest.json"),
            "--threads", "2", "--out-dir", str(out2),
        ) == 0
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names == ["moments_T_0.5.csv", "moments_T_1.csv"]
        assert sorted(p.name for p in out2.glob("*.csv")) == names
        for name in names:
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_fine_level_above_14_exits_one(self, tmp_path, capsys):
        # tau = 2^-14 over the default horizons 1 and 2: T = 2 needs 2^15
        # fine steps
        code = run_cli("moments", "--set", "moments.tau_level=14",
                       "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "moments.tau_level" in err
        assert "fine level 15" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_fine_level_14_accepted(self):
        cfg = replace(ExperimentConfig(), moments_tau_level=13)
        assert cfg.moments_horizons == (1.0, 2.0)
        assert cfg.validate() is cfg


class TestOutputDirectory:
    """One writer owns the output directory: it holds exactly what the
    manifest lists, and a re-run removes what its predecessor listed and
    it does not write, but nothing else."""

    PROFILES = ["interface", "--preset", "interface-eps2",
                "--set", "sampling.n_samples=6",
                "--set", "discretization.fine_level=6",
                "--set", "discretization.tau_levels=6",
                "--set", "interface.times=0.0 1.0"]
    RUNS = {
        "converge": ["converge", *TINY],
        "table1": ["table1", *TINY],
        "interface": [*PROFILES, "--set", "interface.epsilons=0.01 0.05"],
        "moments": ["moments", "--set", "discretization.n_modes=16",
                    "--set", "moments.horizons=0.5 1.0",
                    "--set", "moments.n_samples=4",
                    "--set", "moments.tau_level=5"],
        "verify": ["verify"],
    }

    @staticmethod
    def listing(outdir):
        return sorted(p.name for p in outdir.iterdir())

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_manifest_lists_exactly_what_was_written(self, command, tmp_path,
                                                     monkeypatch):
        # the benchmark's i/o layer wraps these three writers by name and
        # reads the path from their first argument
        written, manifests = [], []

        def log_calls(name, log):
            fn = getattr(cli, name)

            def wrapper(path, *args, **kwargs):
                log.append(path.name)
                return fn(path, *args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)

        log_calls("_write_csv", written)
        log_calls("_write_json", written)
        log_calls("_write_manifest", manifests)
        assert run_cli(*self.RUNS[command], "--out-dir", str(tmp_path)) == 0
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert outputs
        assert self.listing(tmp_path) == sorted(
            outputs + ["manifest.json", "config.resolved.ini"])
        assert len(manifests) == 1
        assert sorted(written) == sorted(outputs + ["manifest.json"])

    def test_rerun_with_refused_fit_removes_old_fit(self, tmp_path, capsys):
        assert run_cli("converge", *TINY, "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "rate_fit.json").exists()
        assert run_cli("converge", *TINY,
                       "--set", "discretization.tau_levels=6",
                       "--out-dir", str(tmp_path)) == 0
        assert "rate fit refused" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["errors.csv"]
        assert self.listing(tmp_path) == [
            "config.resolved.ini", "errors.csv", "manifest.json"]

    def test_rerun_with_fewer_epsilons_removes_old_profile(self, tmp_path):
        assert run_cli(*self.PROFILES, "--set", "interface.epsilons=0.01 0.02",
                       "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "profiles_eps_0.02.csv").exists()
        assert run_cli(*self.PROFILES, "--set", "interface.epsilons=0.01",
                       "--out-dir", str(tmp_path)) == 0
        assert self.listing(tmp_path) == [
            "config.resolved.ini", "manifest.json", "profiles_eps_0.01.csv"]

    def test_failed_write_claims_no_write(self, tmp_path, capsys):
        # the command prints before anything is written, so its lines must
        # not report a write that the i/o error then prevents
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(*self.PROFILES,
                       "--out-dir", str(blocker / "out")) == 3
        out, err = capsys.readouterr()
        assert out.startswith("epsilon=0.01: max |mean value| = ")
        assert "wrote" not in out
        assert err.startswith("i/o error: ")

    @staticmethod
    def contents(outdir):
        return {str(p.relative_to(outdir)): p.read_bytes() if p.is_file()
                else None for p in outdir.rglob("*")}

    def test_name_held_by_a_directory_leaves_the_target_as_it_was(
            self, tmp_path, capsys):
        # the second epsilon's profile name is a directory: nothing may be
        # renamed into place, not even the first epsilon's profile, and the
        # earlier run's profile, which this run does not write, must stay
        assert run_cli(*self.PROFILES, "--set", "interface.epsilons=0.02",
                       "--out-dir", str(tmp_path)) == 0
        (tmp_path / "profiles_eps_0.05.csv").mkdir()
        before = self.contents(tmp_path)
        assert run_cli(*self.PROFILES, "--set", "interface.epsilons=0.01 0.05",
                       "--out-dir", str(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert self.contents(tmp_path) == before

    def test_failed_second_write_leaves_the_target_as_it_was(
            self, tmp_path, monkeypatch):
        assert run_cli(*self.PROFILES, "--set", "interface.epsilons=0.01 0.02",
                       "--out-dir", str(tmp_path)) == 0
        before = self.contents(tmp_path)
        write_csv, calls = cli._write_csv, []

        def failing(path, *args):
            calls.append(path.name)
            if len(calls) == 2:
                raise OSError(f"injected failure writing {path.name}")
            return write_csv(path, *args)
        monkeypatch.setattr(cli, "_write_csv", failing)
        assert run_cli(*self.PROFILES, "--set", "interface.epsilons=0.01 0.05",
                       "--out-dir", str(tmp_path)) == 3
        assert calls == ["profiles_eps_0.01.csv", "profiles_eps_0.05.csv"]
        assert self.contents(tmp_path) == before

    @pytest.mark.parametrize("manifest", [
        None,
        "not json",
        json.dumps({"tool": "other", "outputs": ["notes.txt"]}),
        json.dumps({"tool": "tamedspde", "outputs": {"notes.txt": 1}}),
        json.dumps({"tool": "tamedspde",
                    "outputs": ["../notes.txt", "sub/notes.txt", "sub", "..",
                                ".", ""]}),
    ], ids=["none", "unreadable", "foreign", "not-a-list", "paths"])
    def test_unlisted_files_are_kept(self, manifest, tmp_path):
        # only the plain file names a manifest of this tool lists may go
        outdir = tmp_path / "out"
        (outdir / "sub").mkdir(parents=True)
        for path in (tmp_path / "notes.txt", outdir / "notes.txt",
                     outdir / "sub" / "notes.txt"):
            path.write_text("keep\n")
        if manifest is not None:
            (outdir / "manifest.json").write_text(manifest)
        assert run_cli("verify", "--out-dir", str(outdir)) == 0
        assert self.listing(outdir) == [
            "config.resolved.ini", "manifest.json", "notes.txt", "sub",
            "verify_report.json"]
        assert (tmp_path / "notes.txt").read_text() == "keep\n"
        assert (outdir / "sub" / "notes.txt").read_text() == "keep\n"


class TestFlagsAndHelp:
    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["converge", "--preset", "nope"])

    def test_seed_flag_changes_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("converge", *TINY, "--seed", "1",
                       "--out-dir", str(out1)) == 0
        assert run_cli("converge", *TINY, "--seed", "2",
                       "--out-dir", str(out2)) == 0
        assert (out1 / "errors.csv").read_bytes() != (out2 / "errors.csv").read_bytes()


class TestWorkingSet:
    """Traced peak memory of whole CLI runs: the certification grid is
    swept in row blocks and the noise in 8-step windows, so neither the
    (803, 803) grid nor long windows are ever held."""

    @staticmethod
    def traced_peak(argv) -> float:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_converge_peak(self, tmp_path):
        # 200 samples at fine level 8; the grid alone was 22 MB.  The
        # traced peak was 6.5 MB
        peak = self.traced_peak([
            "converge", "--preset", "paper7-beta5-ci",
            "--set", "discretization.fine_level=8",
            "--set", "discretization.tau_levels=5 6 7",
            "--out-dir", str(tmp_path)])
        assert peak <= 7.5, f"traced peak {peak:.1f} MB"

    def test_interface_two_threads_peak(self, tmp_path):
        # two 256-sample chunks streaming at once; the traced peak was
        # 6.6 MB
        peak = self.traced_peak([
            "interface", "--preset", "interface-eps2", "--threads", "2",
            "--set", "sampling.n_samples=512",
            "--set", "discretization.fine_level=6",
            "--set", "discretization.tau_levels=6",
            "--out-dir", str(tmp_path)])
        assert peak <= 7.0, f"traced peak {peak:.1f} MB"
