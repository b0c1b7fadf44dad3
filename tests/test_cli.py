import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qho_cal
from qho_cal import __version__, analytics, cli
from qho_cal.analytics import TruncationPolicy
from qho_cal.cli import (
    main,
    parse_config,
    run_analytic,
    run_compare,
    run_oracle,
    run_simulate,
)
from qho_cal.errors import ConfigError, InsufficientDataError, SimulationError
from qho_cal.model import PhysicalParams
from qho_cal.trajectories import EnsembleConfig

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")


def small_overrides(tmp_path, name="out.csv", **extra):
    out = {"ntraj": 60, "grid": 4, "seed": 42, "out": str(tmp_path / name)}
    out.update(extra)
    return out


class TestParseConfig:
    def test_empty_input_demands_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("")

    def test_fig4_preset(self):
        cfg = parse_config("preset=fig4")
        assert cfg.params.gamma == pytest.approx(0.001)
        assert cfg.params.beta == 2.0
        assert cfg.params.lambda0 == 0.01
        assert cfg.params.drive_time == pytest.approx(math.pi / 0.01)
        assert cfg.params.dim == 10
        assert cfg.ensemble.n_traj == 100_000
        assert len(cfg.ensemble.checkpoint_grid) == 101

    def test_fig3_preset_requires_beta_choice(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("preset=fig3")
        with pytest.raises(ConfigError, match="beta"):
            parse_config("preset=fig3\nbeta=3.0")
        cfg = parse_config("preset=fig3\nbeta=5")
        assert cfg.params.gamma == pytest.approx(1e-4)

    def test_fig5_presets(self):
        for name, gamma in (("fig5a", 0.01), ("fig5b", 0.05), ("fig5c", 0.1)):
            cfg = parse_config(f"preset={name}")
            assert cfg.params.gamma == pytest.approx(gamma)
            assert cfg.params.beta == 2.0

    def test_negative_beta_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("gamma=0.001\nbeta=-1\n")

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("gamma=0.001\nbogus=3\n")

    def test_line_without_equals_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("preset=fig4\ngrid 5\n")
        out = tmp_path / "out.csv"
        assert main(["analytic", "--config", str(config), "--out", str(out)]) == 2
        assert "line 2: expected key=value" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'bogus'"):
            parse_config("preset=fig4", {"bogus": 3})

    def test_unparsable_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("gamma=abc\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\ngamma=0.01  # trailing\nbeta=1.0\n")
        assert cfg.params.gamma == 0.01

    def test_hash_inside_a_value_is_kept(self):
        # "#" opens a comment only at the start of a line or after whitespace
        cfg = parse_config("preset=fig4\nout=/tmp/run#3.csv\t# trailing\n")
        assert cfg.out == "/tmp/run#3.csv"
        assert parse_config("preset=fig4\nout=run#3.csv\n").out == "run#3.csv"
        with pytest.raises(ConfigError, match="bad value for gamma"):
            parse_config("preset=fig4\ngamma=0.01#no space\n")

    def test_repeated_key_rejected_with_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: grid is already set on line 2"):
            parse_config("preset=fig4\ngrid=5\ngrid=7\n")
        # a flag still overrides a key that the file sets once
        cfg = parse_config("preset=fig4\ngrid=5\n", {"grid": 7})
        assert len(cfg.ensemble.checkpoint_grid) == 7

    def test_flag_overrides_win(self):
        cfg = parse_config("preset=fig4\nntraj=5\n", {"ntraj": 7, "seed": 3})
        assert cfg.ensemble.n_traj == 7
        assert cfg.ensemble.master_seed == 3

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("preset=fig9")

    def test_single_point_grid(self):
        cfg = parse_config("gamma=0.001\nbeta=2\ngrid=1")
        assert cfg.ensemble.checkpoint_grid == (0.0,)

    @pytest.mark.parametrize(
        "text, gamma, beta",
        [
            ("preset=fig3\nbeta=1", 1e-4, 1.0),
            ("preset=fig3\nbeta=2", 1e-4, 2.0),
            ("preset=fig3\nbeta=5", 1e-4, 5.0),
            ("preset=fig4", 1e-3, 2.0),
            ("preset=fig5a", 0.01, 2.0),
            ("preset=fig5b", 0.05, 2.0),
            ("preset=fig5c", 0.1, 2.0),
        ],
    )
    def test_preset_is_the_documented_configuration(self, text, gamma, beta):
        # lambda0 = 0.01, dim = 10, 101 points up to T = pi/lambda0, 100,000
        # trajectories, seed 0 and the policy 1/10/2, all spelled out here
        cfg = parse_config(text)
        t_end = math.pi / 0.01
        assert cfg.params == PhysicalParams(
            gamma=gamma, beta=beta, lambda0=0.01, drive_time=t_end, dim=10
        )
        assert cfg.ensemble == EnsembleConfig(
            checkpoint_grid=tuple(np.linspace(0.0, t_end, 101)), n_traj=100_000, master_seed=0,
            initial_level=None, batch_size=8192,
        )
        assert cfg.policy == TruncationPolicy(n_max=1, m_max=10, jumps_max=2)
        name = text.split("\n")[0].removeprefix("preset=")
        assert cfg.provenance() == [
            f"qho-cal {__version__}",
            f"preset={name}",
            f"lambda0=0.01 gamma={gamma!r} beta={beta!r} drive_time=314.1592653589793 dim=10",
            "ntraj=100000 seed=0 grid_points=101",
            "policy n_max=1 m_max=10 jumps_max=2",
        ]

    def test_policy_keys(self):
        cfg = parse_config("gamma=0.001\nbeta=2\nn_max=0\nm_max=12\njumps_max=1")
        assert (cfg.policy.n_max, cfg.policy.m_max, cfg.policy.jumps_max) == (0, 12, 1)


class TestRunSimulate:
    def test_writes_schema_and_is_deterministic(self, tmp_path):
        text = "preset=fig4\n"
        cfg = parse_config(text, small_overrides(tmp_path, "a.csv"))
        run_simulate(cfg)
        cfg2 = parse_config(text, small_overrides(tmp_path, "b.csv"))
        run_simulate(cfg2)
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == (
            "t,mean_Wp,se_mean_Wp,var_Wp,se_var_Wp,"
            "mean_Wc,se_mean_Wc,var_Wc,se_var_Wc,n_traj"
        )
        assert any(ln.startswith("#") for ln in lines)  # provenance present
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 4

    def test_different_seed_changes_output(self, tmp_path):
        cfg = parse_config("preset=fig4", small_overrides(tmp_path, "a.csv"))
        run_simulate(cfg)
        cfg2 = parse_config("preset=fig4", small_overrides(tmp_path, "b.csv", seed=43))
        run_simulate(cfg2)
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    @pytest.mark.parametrize(
        "preset, ntraj, grid, digest",
        [
            ("fig4", 4096, 21, "9e52667e053277ab1e999d6cf3366abad076c9c557244c59be44bd390e72f34c"),
            ("fig4", 8192, 101, "73b65a5529ae2247ecd15141a783d7544fd57af341eab026e154932f9ef63185"),
            ("fig5c", 256, 11, "b9b078124b566b97e8fc4df98ef67e5fa2013304d1e11751620b3d1340ee927a"),
            # the benchmark's shape: 21 checkpoints cross two measurement blocks
            ("fig5c", 512, 21, "1417e4c682589a643db4473f8cf4f2bb17c6554a359d594bfdeb2f10561e0425"),
            # weak damping at beta 5: nearly every row is measured off the
            # no-jump table at every checkpoint
            ("fig3 beta=5", 4096, 21,
             "11f9d034db34dec5988eff173becb6976ae764006a75d2d001f36824ed363e45"),
            # rows measured off the table and jumped rows mix
            ("fig5b", 1024, 21, "a3d2f71a8e2ff2960c6c969428644f617af992f18d4dda41deca57c41aad115b"),
        ],
    )
    def test_csv_body_is_golden(self, tmp_path, preset, ntraj, grid, digest):
        # the estimator rows (every line but the provenance header) at seed 7;
        # settings after the preset name go in through a --config file
        out = tmp_path / "sim.csv"
        preset, *settings = preset.split()
        (tmp_path / "run.cfg").write_text("".join(f"{line}\n" for line in settings))
        argv = ["simulate", "--preset", preset, "--ntraj", str(ntraj), "--grid", str(grid),
                "--config", str(tmp_path / "run.cfg")]
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
        body = "".join(
            line for line in out.read_text().splitlines(keepends=True) if not line.startswith("#")
        )
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    def test_one_trajectory_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a standard error needs two samples: refused before any batch is
        # evolved, and no file is written
        monkeypatch.setattr(cli, "iter_ensemble", lambda *a: pytest.fail("ensemble evolved"))
        out = tmp_path / "one.csv"
        argv = ["simulate", "--preset", "fig4", "--ntraj", "1", "--grid", "5", "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_rejected(self):
        cfg = parse_config("preset=fig4\nntraj=2\ngrid=2")
        with pytest.raises(ConfigError, match="out"):
            run_simulate(cfg)

    def test_loads_no_scipy(self, tmp_path):
        # importing scipy takes most of a process's start-up, and neither
        # simulate nor oracle needs any of its results: a fresh interpreter
        # that imports the CLI and runs one of them must not have loaded it
        src = str(Path(qho_cal.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        for command, flags in (("simulate", ["--ntraj", "64"]), ("oracle", [])):
            out = tmp_path / f"{command}.csv"
            argv = [command, "--preset", "fig4", "--grid", "3", "--out", str(out), *flags]
            code = (
                "import sys\n"
                "from qho_cal.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stdout.splitlines()[-1] == "[]", command
            assert out.exists()


class TestRunAnalytic:
    def test_unitary_only_without_coupling(self, tmp_path):
        cfg = parse_config(
            "gamma=0\nbeta=2\nlambda0=0.01", small_overrides(tmp_path)
        )
        run_analytic(cfg)
        rows = [
            ln
            for ln in (tmp_path / "out.csv").read_text().splitlines()
            if not ln.startswith("#") and "," in ln
        ][1:]
        assert all(row.endswith("unitary") for row in rows)
        assert len(rows) == 4

    def test_both_methods_for_fig4(self, tmp_path):
        cfg = parse_config("preset=fig4", small_overrides(tmp_path, grid=3))
        run_analytic(cfg)
        rows = [
            ln
            for ln in (tmp_path / "out.csv").read_text().splitlines()
            if not ln.startswith("#") and "," in ln
        ][1:]
        methods = {row.rsplit(",", 1)[1] for row in rows}
        assert methods == {"unitary", "perturbative"}
        assert len(rows) == 6

    def test_zero_temperature_closed_forms(self, tmp_path):
        cfg = parse_config(
            "gamma=1e-6\nbeta=20\nlambda0=0.01", small_overrides(tmp_path, grid=5)
        )
        run_analytic(cfg)
        rows = []
        for ln in (tmp_path / "out.csv").read_text().splitlines():
            if ln.startswith("#") or ln.startswith("t,"):
                continue
            parts = ln.split(",")
            if parts[-1] == "unitary":
                rows.append([float(x) for x in parts[:-1]])
        lam = 0.01
        for t, mean_p, var_p, mean_c, var_c in rows:
            mu_t = (lam * t / 2.0) ** 2
            assert abs(mean_c - (1 - math.exp(-mu_t))) < 1e-6
            assert abs(var_c - math.exp(-2 * mu_t) * (math.exp(mu_t) - 1)) < 1e-6

    def test_failing_row_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # every row is computed before the file is opened: a perturbative row
        # that fails its node-doubling check (fig4 at T, the last grid time,
        # with 4 jump-time nodes) leaves no partial CSV behind
        monkeypatch.setattr(analytics, "_JUMP_NODES", 4)
        out = tmp_path / "ana.csv"
        assert main(["analytic", "--preset", "fig4", "--grid", "5", "--out", str(out)]) == 3
        assert "numerical error: jump-time quadrature not converged" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_body_is_golden(self, tmp_path):
        # the fig5a rows at 11 points (every line but the provenance header),
        # as the code that built one time at a time wrote them
        out = tmp_path / "ana.csv"
        assert main(["analytic", "--preset", "fig5a", "--grid", "11", "--out", str(out)]) == 0
        body = "".join(
            line for line in out.read_text().splitlines(keepends=True) if not line.startswith("#")
        )
        digest = "ab11409b2ef04d7d582ac9fe8876c3c4a3713bbb3e3c27d7a26a8bca976e42a5"
        assert hashlib.sha256(body.encode()).hexdigest() == digest


class TestRunOracle:
    def test_populations_csv(self, tmp_path):
        cfg = parse_config("preset=fig4\ndim=6", small_overrides(tmp_path, grid=3))
        run_oracle(cfg)
        lines = [
            ln
            for ln in (tmp_path / "out.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == "t," + ",".join(f"p{m}" for m in range(6))
        assert len(lines) == 4
        for ln in lines[1:]:
            pops = [float(x) for x in ln.split(",")[1:]]
            assert sum(pops) == pytest.approx(1.0, abs=1e-6)


class TestRunCompare:
    def _write_pair(self, tmp_path, sim_rows, ana_rows):
        sim = tmp_path / "sim.csv"
        ana = tmp_path / "ana.csv"
        sim_header = (
            "t,mean_Wp,se_mean_Wp,var_Wp,se_var_Wp,"
            "mean_Wc,se_mean_Wc,var_Wc,se_var_Wc,n_traj"
        )
        ana_header = "t,mean_Wp,var_Wp,mean_Wc,var_Wc,method"
        sim.write_text(sim_header + "\n" + "\n".join(sim_rows) + "\n")
        ana.write_text(ana_header + "\n" + "\n".join(ana_rows) + "\n")
        return str(sim), str(ana)

    def test_identical_inputs_pass(self, tmp_path, capsys):
        sim, ana = self._write_pair(
            tmp_path,
            ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"],
            ["0,0,0,0,0,unitary", "1,0.5,1,0.4,0.9,unitary"],
        )
        assert run_compare(sim, ana) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_discrepancy_fails_with_code_4(self, tmp_path):
        sim, ana = self._write_pair(
            tmp_path,
            ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"],
            ["0,0,0,0,0,unitary", "1,0.9,1,0.4,0.9,unitary"],  # mean_Wp off by 40 SE
        )
        assert run_compare(sim, ana) == 4

    def test_discrepancy_against_zero_se_fails(self, tmp_path, capsys):
        # an SE of 0 cannot excuse a real difference: z = inf in every column
        sim, ana = self._write_pair(
            tmp_path,
            ["0,0,0,0,0,0,0,0,0,10", "1,0,0,0,0,0,0,0,0,10"],
            ["0,0,0,0,0,unitary", "1,0.5,0.7,0.4,0.9,unitary"],
        )
        assert main(["compare", sim, ana]) == 4
        report = capsys.readouterr().out.splitlines()[:4]
        assert all(line.endswith("max|z| =     inf  FAIL") for line in report)

    @pytest.mark.parametrize("times", [("10", "1"), ("1", "1"), ("-1", "1")],
                             ids=["decreasing", "repeated", "negative"])
    def test_simulated_times_must_be_a_grid(self, tmp_path, capsys, times):
        # the perturbative mean_Wp is off by 5 against an SE of 0; a grid
        # that does not increase left the t <= T/2 window empty, and the pair
        # passed with max|z| = 0
        sim, ana = self._write_pair(
            tmp_path,
            [f"{times[0]},5,0,0,0,0,0,0,0,10", f"{times[1]},0,0,0,0,0,0,0,0,10"],
            [f"{times[0]},0,0,0,0,perturbative", f"{times[1]},0,0,0,0,perturbative"],
        )
        assert main(["compare", sim, ana]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"configuration error: {sim}: grid times must be" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["simulated", "analytic"])
    def test_non_finite_cell_is_config_error(self, tmp_path, capsys, which, value):
        # an inf mean_Wp scored as nan (inf - inf) and printed numpy's
        # RuntimeWarning before the report; now the file and row are named
        sim_rows = ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"]
        ana_rows = ["0,0,0,0,0,unitary", "1,0.5,1,0.4,0.9,unitary"]
        rows = sim_rows if which == "simulated" else ana_rows
        rows[1] = rows[1].replace("0.5", value, 1)
        sim, ana = self._write_pair(tmp_path, sim_rows, ana_rows)
        assert main(["compare", sim, ana]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        path = sim if which == "simulated" else ana
        assert f"{path}: non-finite field in data row 2: '{rows[1]}'" in captured.err

    def test_perturbative_window_excuses_late_times(self, tmp_path):
        # identical early rows, drifted late row: perturbative method only
        # audited up to half the horizon
        sim, ana = self._write_pair(
            tmp_path,
            [
                "0,0,0,0,0,0,0,0,0,10",
                "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10",
                "2,0.7,0.01,1,0.05,0.5,0.01,0.9,0.05,10",
            ],
            [
                "0,0,0,0,0,perturbative",
                "1,0.5,1,0.4,0.9,perturbative",
                "2,1.7,1,0.5,0.9,perturbative",  # wildly off, but beyond 0.5 T
            ],
        )
        assert run_compare(sim, ana) == 0

    def test_threshold_is_not_an_option(self, tmp_path, capsys):
        # the pass threshold is fixed at |z| <= 3
        sim, ana = self._write_pair(tmp_path, ["0,0,0,0,0,0,0,0,0,10"], ["0,0,0,0,0,unitary"])
        with pytest.raises(SystemExit) as exc:
            main(["compare", sim, ana, "--zmax", "2"])
        assert exc.value.code == 2
        assert "--zmax" in capsys.readouterr().err
        assert main(["compare", sim, ana]) == 0
        assert capsys.readouterr().out.endswith("compare: pass (z threshold 3.0)\n")

    def test_grid_mismatch_detected(self, tmp_path):
        sim, ana = self._write_pair(
            tmp_path,
            ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"],
            ["0,0,0,0,0,unitary", "2,0.5,1,0.4,0.9,unitary"],
        )
        from qho_cal.errors import GridMismatchError

        with pytest.raises(GridMismatchError):
            run_compare(sim, ana)

    def test_mismatch_in_a_later_method_prints_nothing(self, tmp_path, capsys):
        # the unitary rows share the simulated grid, the perturbative rows do
        # not: every method's grid is checked before any line is printed
        sim, ana = self._write_pair(
            tmp_path,
            ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"],
            ["0,0,0,0,0,unitary", "1,0.5,1,0.4,0.9,unitary",
             "0,0,0,0,0,perturbative", "2,0.5,1,0.4,0.9,perturbative"],
        )
        assert main(["compare", sim, ana]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "time grids differ" in captured.err

    def test_comment_and_blank_lines_between_rows_are_skipped(self, tmp_path, capsys):
        sim_rows = ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"]
        ana_rows = ["0,0,0,0,0,unitary", "1,0.9,1,0.4,0.9,unitary"]
        sim, ana = self._write_pair(tmp_path, sim_rows, ana_rows)
        assert main(["compare", sim, ana]) == 4
        plain = capsys.readouterr().out
        sim, ana = self._write_pair(
            tmp_path,
            [sim_rows[0], "", "# note", sim_rows[1]],
            [ana_rows[0], "  # x", "", ana_rows[1]],
        )
        assert main(["compare", sim, ana]) == 4
        assert capsys.readouterr().out == plain

    def test_analytic_csv_without_method_column(self, tmp_path, capsys):
        sim, ana = self._write_pair(tmp_path, ["0,0,0,0,0,0,0,0,0,10"], ["0,0,0,0,0,unitary"])
        Path(ana).write_text("t,mean_Wp,var_Wp,mean_Wc,var_Wc\n0,0,0,0,0\n")
        assert main(["compare", sim, ana]) == 2
        assert "missing columns method" in capsys.readouterr().err

    def test_nearby_drive_time_is_a_grid_mismatch(self, tmp_path, capsys):
        # fig4's T = pi / lambda0 = 314.159265... against drive_time=314.16:
        # the grids end 7e-4 apart, far outside the 1e-9 a shared grid
        # allows, so compare exits 3 instead of scoring them
        config = tmp_path / "dt.cfg"
        config.write_text("preset=fig4\ndrive_time=314.16\n")
        sim, ana = tmp_path / "sim.csv", tmp_path / "ana.csv"
        base = ["--grid", "5", "--out"]
        assert main(["simulate", "--preset", "fig4", "--ntraj", "200", *base, str(sim)]) == 0
        assert main(["analytic", "--config", str(config), *base, str(ana)]) == 0
        capsys.readouterr()
        assert main(["compare", str(sim), str(ana)]) == 3
        assert "time grids differ" in capsys.readouterr().err

    def _write_provenance_pair(self, tmp_path, sim_config, ana_config):
        # a pair that passes on its values, each file opened by the
        # provenance lines that the CSV writers put there for its config
        sim, ana = self._write_pair(
            tmp_path,
            ["0,0,0,0,0,0,0,0,0,10", "1,0.5,0.01,1,0.05,0.4,0.01,0.9,0.05,10"],
            ["0,0,0,0,0,unitary", "1,0.5,1,0.4,0.9,unitary"],
        )
        for path, config in ((sim, sim_config), (ana, ana_config)):
            if config is not None:
                notes = parse_config(config).provenance()
                Path(path).write_text("".join(f"# {n}\n" for n in notes) + Path(path).read_text())
        return sim, ana

    @pytest.mark.parametrize("key, value", [("lambda0", "0.0101"), ("gamma", "0.002"),
                                            ("beta", "2.5")])
    def test_different_physics_is_config_error(self, tmp_path, capsys, key, value):
        # the same grid and values in both files, written for different
        # physics: exit 2 before any line is printed
        base = "preset=fig4\ndrive_time=1\n"
        sim, ana = self._write_provenance_pair(tmp_path, base, base + f"{key}={value}\n")
        assert main(["compare", sim, ana]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        was = {"lambda0": "0.01", "gamma": "0.001", "beta": "2.0"}[key]
        assert f"configuration error: {key} differs: {was} in {sim}, {value} in {ana}" in captured.err

    @pytest.mark.parametrize("sim_config, ana_config",
                             [("preset=fig4", None), (None, "preset=fig4"),
                              ("preset=fig4", "preset=fig4\ndim=14\ndrive_time=3\n")],
                             ids=["simulated-only", "analytic-only", "dim-and-drive_time"])
    def test_provenance_scored_as_without(self, tmp_path, capsys, sim_config, ana_config):
        # a file without provenance is scored as it is, and dim and
        # drive_time are not compared: the report is that of the bare pair
        sim, ana = self._write_provenance_pair(tmp_path, None, None)
        assert main(["compare", sim, ana]) == 0
        plain = capsys.readouterr().out
        sim, ana = self._write_provenance_pair(tmp_path, sim_config, ana_config)
        assert main(["compare", sim, ana]) == 0
        assert capsys.readouterr().out == plain


class TestMainEntry:
    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--preset", "fig9"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["analytic", "--config", str(missing), "--out", str(tmp_path / "a.csv")]) == 2
        assert "configuration error: cannot read config file" in capsys.readouterr().err

    def test_insufficient_data_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        # every package error that is not a configuration error exits 3
        def refuse(batches):
            raise InsufficientDataError("too few samples")

        monkeypatch.setattr(cli, "measure_ensemble", refuse)
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--preset", "fig4", "--ntraj", "60", "--grid", "4", "--out", str(out)]
        assert main(argv) == 3
        assert "numerical error: too few samples" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_exits_2_without_csv(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("preset=fig4\ngrid=5\ngrid=7\n")
        out = tmp_path / "ana.csv"
        assert main(["analytic", "--config", str(config), "--out", str(out)]) == 2
        assert "line 3: grid is already set on line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "points, message", [(0, "grid must not be empty"), (-1, "must be non-negative")]
    )
    def test_grid_without_points_exits_2_without_csv(self, tmp_path, capsys, points, message):
        # quadrature.checked_grid owns the empty-grid rule; numpy's linspace
        # refuses a negative count; either is a configuration error
        out = tmp_path / "ana.csv"
        assert main(["analytic", "--preset", "fig4", "--grid", str(points), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_end_to_end_simulate_and_compare(self, tmp_path, capsys):
        # tiny but complete pipeline through the console entry point
        config = tmp_path / "exp.cfg"
        config.write_text("gamma=1e-6\nbeta=20\nlambda0=0.01\n")
        sim_csv = tmp_path / "sim.csv"
        ana_csv = tmp_path / "ana.csv"
        base = ["--config", str(config), "--grid", "4", "--seed", "1"]
        assert main(["simulate", *base, "--ntraj", "4000", "--out", str(sim_csv)]) == 0
        assert main(["analytic", *base, "--out", str(ana_csv)]) == 0
        assert main(["compare", str(sim_csv), str(ana_csv)]) == 0

    def test_oracle_subcommand(self, tmp_path):
        out = tmp_path / "pops.csv"
        assert (
            main(
                [
                    "oracle",
                    "--preset",
                    "fig4",
                    "--grid",
                    "3",
                    "--dim",
                    "8",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()

    def test_analytic_and_oracle_print_elapsed_time(self, tmp_path, capsys):
        # the summary line carries the time; the CSV does not
        for command in ("analytic", "oracle"):
            out = tmp_path / f"{command}.csv"
            flags = ["--preset", "fig4", "--grid", "3", "--dim", "6", "--out", str(out)]
            assert main([command, *flags]) == 0
            summary = capsys.readouterr().out.strip()
            pattern = rf"{command}: 3 grid points, \d+\.\d\d s -> {re.escape(str(out))}"
            assert re.fullmatch(pattern, summary)
            assert " s ->" not in out.read_text()

    def test_module_run_warning_names_no_library_line(self, tmp_path):
        # under python -m the CLI module is named __main__; its RegimeWarning
        # must still name a line outside the package, as the console script's does
        package = Path(qho_cal.__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
        out = tmp_path / "fig5c.csv"
        argv = ["analytic", "--preset", "fig5c", "--grid", "5", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "qho_cal.cli", *argv],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        [line] = [ln for ln in proc.stderr.splitlines() if "RegimeWarning" in ln]
        filename = line.split(": RegimeWarning")[0].rsplit(":", 1)[0]
        assert not Path(filename).resolve().is_relative_to(package), line

    @pytest.mark.parametrize(
        "flags, config_text",
        [
            (["--preset", "fig4", "--grid", "1"], None),  # t = 0 only
            (["--preset", "fig4", "--grid", "5", "--dim", "2"], None),
            (["--grid", "5"], "gamma=0\nbeta=2\nlambda0=0.01\n"),
        ],
        ids=["grid1", "dim2", "gamma0"],
    )
    def test_oracle_edge_cases(self, tmp_path, flags, config_text):
        out = tmp_path / "pops.csv"
        if config_text is not None:
            config = tmp_path / "exp.cfg"
            config.write_text(config_text)
            flags = [*flags, "--config", str(config)]
        assert main(["oracle", *flags, "--out", str(out)]) == 0
        rows = [
            [float(x) for x in ln.split(",")]
            for ln in out.read_text().splitlines()
            if not ln.startswith(("#", "t,"))
        ]
        assert len(rows) == int(flags[flags.index("--grid") + 1])
        for row in rows:
            assert sum(row[1:]) == pytest.approx(1.0, abs=1e-12)
        if len(rows) == 1:
            thermal = np.exp(-2.0 * np.arange(10))
            np.testing.assert_allclose(rows[0][1:], thermal / thermal.sum(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "flags, config_text",
        [
            (["--preset", "fig4", "--grid", "1"], None),  # t = 0 only
            # two levels hold the thermal state only at low temperature, and
            # strong damping keeps the drive off the top level
            (["--grid", "5", "--dim", "2"], "gamma=0.1\nbeta=5\nlambda0=0.01\n"),
            (["--grid", "5"], "gamma=0\nbeta=2\nlambda0=0.01\n"),  # no jumps
            # exceptional point of the two-level generator: cond(V) ~ 1e8
            (["--grid", "5", "--dim", "2"], "gamma=0.02\nbeta=5\nlambda0=0.01\ndrive_time=20\n"),
        ],
        ids=["grid1", "dim2", "gamma0", "exceptional-point"],
    )
    def test_simulate_edge_cases(self, tmp_path, flags, config_text):
        out = tmp_path / "sim.csv"
        if config_text is not None:
            config = tmp_path / "exp.cfg"
            config.write_text(config_text)
            flags = [*flags, "--config", str(config)]
        assert main(["simulate", *flags, "--ntraj", "200", "--seed", "3", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0].split(",")[0] == "t" and lines[0].split(",")[-1] == "n_traj"
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (int(flags[flags.index("--grid") + 1]), len(lines[0].split(",")))
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, -1] == 200)

    def test_simulate_rejects_dt_key(self, tmp_path, capsys):
        # the waiting-time engine has no time step to configure
        config = tmp_path / "exp.cfg"
        config.write_text("preset=fig4\ndt=0.1\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config), "--ntraj", "10", "--out", str(out)]) == 2
        assert "dt" in capsys.readouterr().err
        assert not out.exists()

    def test_analytic_rejects_omega0_key(self, tmp_path, capsys):
        # every input is in units of hbar*omega0, so there is no frequency to set
        config = tmp_path / "exp.cfg"
        config.write_text("preset=fig4\nomega0=2\n")
        out = tmp_path / "ana.csv"
        assert main(["analytic", "--config", str(config), "--grid", "3", "--out", str(out)]) == 2
        assert "omega0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.xfail(
        strict=True,
        reason="the README example exits 4: unitary max|z| is 9.7, 5.1, 30.8 and 47.2 "
        "for mean_Wp, var_Wp, mean_Wc and var_Wc, because the whole-grid unitary "
        "window ignores damping; perturbative var_Wp reaches 6.0 and var_Wc 3.6 "
        "inside T/2, the n_max = 1 truncation gap",
    )
    def test_readme_compare_example_passes(self, tmp_path):
        sim, ana = str(tmp_path / "sim.csv"), str(tmp_path / "ana.csv")
        flags = ["--preset", "fig4", "--grid", "21"]
        assert main(["simulate", *flags, "--ntraj", "20000", "--seed", "1", "--out", sim]) == 0
        assert main(["analytic", *flags, "--out", ana]) == 0
        assert main(["compare", sim, ana]) == 0

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        # the seed keys the random streams and must be non-negative
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--preset", "fig4", "--seed", "-1", "--ntraj", "10", "--grid", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_analytic_rejects_three_jumps(self, tmp_path, capsys):
        # the transfer table holds at most two jumps: refused before any file
        config = tmp_path / "exp.cfg"
        config.write_text("preset=fig4\njumps_max=3\n")
        out = tmp_path / "ana.csv"
        assert main(["analytic", "--config", str(config), "--grid", "3", "--out", str(out)]) == 2
        assert "jumps_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analytic", "oracle"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["gamma", "beta", "lambda0", "drive_time"])
    def test_non_finite_physical_input_is_config_error(
        self, tmp_path, capsys, key, value, command
    ):
        config = tmp_path / "exp.cfg"
        config.write_text(f"preset=fig4\n{key}={value}\n")
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(config), "--grid", "3", "--ntraj", "10"]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sim_text, message",
        [
            ("t,mean_Wp\n0,abc\n", "non-numeric"),
            ("t,mean_Wp,se_mean_Wp\n0,0,0\n1,0.5\n", "fields"),
            ("t,p0,p1\n0,0.9,0.1\n", "missing columns mean_Wp"),  # an oracle CSV
            ("t,mean_Wp,se_mean_Wp\n", "at least one data row"),
        ],
        ids=["non-numeric", "ragged", "oracle-as-simulated", "header-only"],
    )
    def test_compare_bad_input_is_config_error(self, tmp_path, capsys, sim_text, message):
        sim = tmp_path / "sim.csv"
        ana = tmp_path / "ana.csv"
        sim.write_text(sim_text)
        ana.write_text("t,mean_Wp,var_Wp,mean_Wc,var_Wc,method\n0,0,0,0,0,unitary\n")
        assert main(["compare", str(sim), str(ana)]) == 2
        assert message in capsys.readouterr().err

    def test_compare_missing_file_is_config_error(self, tmp_path, capsys):
        sim = tmp_path / "nope.csv"
        assert main(["compare", str(sim), str(sim)]) == 2
        assert "cannot read CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analytic", "oracle"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # an --out that is a directory, or whose parent is missing, cannot
        # take the CSV: a configuration error, not a traceback, raised before
        # anything is evolved, integrated or tabulated
        compute = {"simulate": "iter_ensemble", "analytic": "write_analytic_csv",
                   "oracle": "integrate"}[command]
        monkeypatch.setattr(cli, compute, lambda *a, **k: pytest.fail(f"{compute} was called"))
        for out in (tmp_path, tmp_path / "missing" / "out.csv"):
            argv = [command, "--preset", "fig4", "--grid", "3", "--out", str(out)]
            if command == "simulate":
                argv += ["--ntraj", "8"]
            assert main(argv) == 2
            assert f"configuration error: cannot write CSV {out}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
