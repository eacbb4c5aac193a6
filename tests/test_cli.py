"""Command-line interface: subcommands, flags, exit codes, output files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cablelift
from cablelift import cli, harness

FAST_CONFIG = """\
schema_version: 1
preset: hover-nominal
name: quick
scenario:
  duration_s: 1.0
"""

SWEEP_CONFIG = """\
schema_version: 1
preset: hover-nominal
name: grid
scenario:
  duration_s: 0.5
sweep:
  alphas: [0.2, 0.02]
  betas: [0.05]
"""

# hover-nominal starts inside this clearance ball, so the very first forced
# solve is infeasible and the run aborts
ABORT_CONFIG = """\
schema_version: 1
preset: hover-nominal
name: doomed
obstacle:
  center_m: [0.0, 0.0, 1.0]
  clearance_m: 0.5
"""

# a payload this light asks for tensions below the floor that points a
# cable, so the first tick's cable controller fails and the run aborts
TINY_PAYLOAD_CONFIG = """\
schema_version: 1
preset: hover
name: feather
system:
  payload_mass_kg: 1.0e-9
"""

# a payload this heavy drives the predictor's integrator past the float
# range, so the first forced solve fails and the run aborts; the tension
# bound is raised past its cables' hover share, which a config refuses below
HEAVY_PAYLOAD_CONFIG = """\
schema_version: 1
preset: hover-recovery
name: anvil
system:
  payload_mass_kg: 1.0e+200
  tension_max_N: 1.0e+300
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_fresh(script: str) -> str:
    """stdout of `script` run in a fresh interpreter that imports this
    checkout's cablelift."""
    src = str(Path(cablelift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


class TestPresets:
    def test_lists_every_scenario(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in harness.preset_names():
            assert name in out
        for name in ("loose", "medium", "tight"):
            assert name in out


class TestRun:
    def test_config_file(self, tmp_path, capsys):
        config = write(tmp_path, FAST_CONFIG)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "quick.csv").exists()
        assert (out_dir / "quick_summary.txt").exists()
        assert "nmpc_executions" in capsys.readouterr().out

    def test_preset_flag(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--preset", "hover-recovery", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "hover-recovery.csv").exists()
        assert "[hover-recovery]" in capsys.readouterr().out

    def test_config_and_preset_conflict(self, tmp_path, capsys):
        # the conflict is reported before the file is read, so a missing
        # file reads as the same conflict
        for config in (write(tmp_path, FAST_CONFIG), str(tmp_path / "missing.yaml")):
            code = cli.main(
                ["run", "--config", config, "--preset", "hover", "--out-dir", str(tmp_path)]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and "either --config or --preset" in err

    def test_unknown_preset(self, tmp_path, capsys):
        assert cli.main(["run", "--preset", "barrel-roll", "--out-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        config = write(tmp_path, "schema_version: 1\nwind: strong\n")
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "preset, section, key, value",
        [
            ("hover-nominal", "scenario", "duration_s", ".nan"),
            ("hover-nominal", "scenario", "duration_s", "abc"),
            ("hover-nominal", "scenario", "initial_offset_m", "[.nan, 0, 0]"),
            ("hover", "scenario", "initial_offset_m", "[.nan, 0, 0]"),
            ("hover-nominal", "scenario", "initial_offset_m", "[1, 2]"),
            ("hover-nominal", "nmpc", "horizon", "2.7"),
            ("hover", "system", "mav_mass_kg", "-1"),
            ("hover", "system", "cable_length_m", "0"),
            ("hover", "nmpc", "horizon", "0"),
            ("hover", "scenario", "dt_lowlevel_s", "0"),
            # within the multiple check's 1e-9 of the ratio 0
            ("hover", "nmpc", "dt_s", "1.0e-12"),
            ("hover", "trigger", "sigma", "0"),
            ("hover", "trigger", "alpha", "-1"),
            ("hover", "system", "cable_stiffness_Npm", "0"),
            ("hover", "nmpc", "funnel_epsilon_m", "0"),
            ("hover", "solver", "max_sqp_iters", "0"),
            ("hover", "nmpc", "funnel_weight", "-1"),
            ("hover", "disturbance", "eta", "-1"),
            ("hover", "scenario", "seed", "-3"),
            ("hover", "nmpc", "horizon", "1"),
            ("hover", "trigger", "preset", "[tight]"),
            ("hover", "trigger", "preset", "{name: tight}"),
            ("hover", "weights", "position", "-1"),
            ("hover", "weights", "terminal_scale", "0"),
            ("hover", "gains", "attitude", "-1"),
            ("hover", "scenario", "plant_model", "hybrid"),
            ("hover", "reference", "kind", "spiral"),
            ("hover", "disturbance", "kind", "gusty"),
            ("circle", "reference", "radius_m", "-1"),
            ("circle", "reference", "period_s", "0"),
        ],
    )
    def test_malformed_number_is_a_config_error(self, tmp_path, capsys, preset, section, key, value):
        text = f"schema_version: 1\npreset: {preset}\n{section}:\n  {key}: {value}\n"
        config = write(tmp_path, text)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "position, terminal_scale, key",
        [("1.0e+308", "4.0", "position"), ("10.0", "1.0e+308", "terminal_scale")],
    )
    def test_overflowing_terminal_weight_is_a_config_error(
        self, tmp_path, capsys, position, terminal_scale, key
    ):
        """terminal_scale * position overflows to inf: exit 2 naming the
        key, not a traceback."""
        text = (
            "schema_version: 1\npreset: hover\n"
            f"weights:\n  position: {position}\n  terminal_scale: {terminal_scale}\n"
        )
        config = write(tmp_path, text)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("preset", ["[hover]", "{name: hover}"])
    def test_preset_that_is_not_a_name_is_a_config_error(self, tmp_path, capsys, preset):
        config = write(tmp_path, f"schema_version: 1\npreset: {preset}\n")
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'preset'" in err
        assert "Traceback" not in err

    def test_horizon_below_sigma_is_a_config_error(self, tmp_path, capsys):
        """A replan shrinks the horizon no lower than sigma, so a horizon
        below it would fail at the first replan instead of here."""
        text = "schema_version: 1\npreset: hover-nominal\ntrigger:\n  sigma: 3\nnmpc:\n  horizon: 2\n"
        config = write(tmp_path, text)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        assert "'horizon'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, settings",
        [
            ("hover", "scenario:\n  duration_s: 1.0e-300\n"),
            ("hover-recovery", "scenario:\n  duration_s: 0.1\nnmpc:\n  dt_s: 1.0e+300\n"),
        ],
    )
    def test_duration_without_a_tick_is_a_config_error(self, tmp_path, capsys, preset, settings):
        """A duration shorter than one tick used to end in an empty-log
        traceback after the run; it exits 2 before the run instead."""
        config = write(tmp_path, f"schema_version: 1\npreset: {preset}\n{settings}")
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'duration_s'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "preset, settings, key",
        [
            # the ratio dt_s / dt_lowlevel_s overflows to inf
            ("hover", "scenario:\n  dt_lowlevel_s: 1.0e-310\n", "'dt_s'"),
            # the tick count overflows to inf
            ("hover-recovery", "scenario:\n  duration_s: 1.0e+300\nnmpc:\n  dt_s: 1.0e-10\n",
             "'duration_s'"),
            # 1e301 ticks, past any array's length
            ("hover", "scenario:\n  dt_lowlevel_s: 1.0e-300\nnmpc:\n  dt_s: 1.0e-300\n",
             "'duration_s'"),
        ],
    )
    def test_tick_count_no_array_holds_is_a_config_error(
        self, tmp_path, capsys, preset, settings, key
    ):
        """A tick ratio or count past the float or index range used to end
        in an overflow traceback; it exits 2 naming the key instead."""
        config = write(tmp_path, f"schema_version: 1\npreset: {preset}\n{settings}")
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bound", ["0.01", "0.5"])
    def test_tension_bound_below_the_hover_share_is_a_config_error(self, tmp_path, capsys, bound):
        """A bound under a cable's hover share used to drop the payload or
        abort on a cable overload; it exits 2 before the run instead."""
        text = f"schema_version: 1\npreset: circle\nsystem:\n  tension_max_N: {bound}\n"
        config = write(tmp_path, text)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'tension_max_N'" in err and "0.569 N" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sigma", [1, 2])
    def test_horizon_two_runs(self, tmp_path, capsys, sigma):
        text = (
            "schema_version: 1\npreset: hover-recovery\nscenario:\n  duration_s: 0.5\n"
            f"trigger:\n  sigma: {sigma}\nnmpc:\n  horizon: 2\n"
        )
        config = write(tmp_path, text)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("name", ["sub/run", '"../x"', "[1, 2]", '"a\\0b"'])
    def test_name_that_is_not_one_file_name_is_a_config_error(self, tmp_path, capsys, name):
        """The name becomes the output file name, so anything but one
        file-name component is refused before the run writes anything."""
        text = (
            f"schema_version: 1\npreset: hover-nominal\nname: {name}\n"
            "scenario:\n  duration_s: 0.1\n"
        )
        config = write(tmp_path, text)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out-dir", str(out_dir)]) == 2
        assert "'name'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command, spare", [("run", 1), ("sweep", 0)])
    def test_name_too_long_for_its_files_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, command, spare
    ):
        """A run name whose <name>_summary.txt the file system cannot hold is
        refused before any run.  The sweep's base name fits exactly, so only
        its grid-point names, which add a label, are too long."""

        def never(config):
            raise AssertionError("simulated a run whose files cannot be written")

        monkeypatch.setattr(harness, "run_closed_loop", never)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        length = os.pathconf(out_dir, "PC_NAME_MAX") - len("_summary.txt") + spare
        config = write(tmp_path, f"schema_version: 1\npreset: hover-nominal\nname: {'n' * length}\n")
        assert cli.main([command, "--config", config, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'name'" in err
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize(
        "text",
        [None, "scenario: {name: [unclosed\n", "schema_version: 1\n\tpreset: hover\n"],
        ids=["missing", "unclosed-flow", "tab-indent"],
    )
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, text):
        """A missing file and one that is not YAML name the file and exit 2,
        not 1 (a run aborted mid-flight) with a traceback."""
        path = str(tmp_path / "missing.yaml") if text is None else write(tmp_path, text)
        assert cli.main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert path in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_out_dir_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch, command):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")

        def never(config):
            raise AssertionError("simulated with an unusable --out-dir")

        monkeypatch.setattr(harness, "run_closed_loop", never)
        code = cli.main([command, "--preset", "hover", "--out-dir", str(taken / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(taken / "out") in err
        code = cli.main([command, "--preset", "hover", "--out-dir", str(taken)])
        assert code == 2
        assert str(taken) in capsys.readouterr().err

    def test_aborted_run_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, ABORT_CONFIG)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 1
        assert "run aborted" in capsys.readouterr().err

    def test_failing_controller_aborts_the_run(self, tmp_path, capsys):
        """A failure inside a tick exits 1 as an aborted run, not with a
        traceback."""
        config = write(tmp_path, TINY_PAYLOAD_CONFIG)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run aborted")
        assert "Traceback" not in err

    # the overflow on the way to the non-finite state warns as it happens
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failing_solve_aborts_the_run(self, tmp_path, capsys):
        """A failure inside the first forced solve exits 1 as an aborted run,
        not with a traceback."""
        config = write(tmp_path, HEAVY_PAYLOAD_CONFIG)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run aborted")
        assert "Traceback" not in err

    def test_preset_run_loads_neither_scipy_nor_yaml(self, tmp_path):
        """A preset run needs numpy and the standard library only; scipy and
        the YAML parser would add most of its start-up time."""
        script = (
            "import sys\n"
            "from cablelift import cli\n"
            f"code = cli.main(['run', '--preset', 'hover-recovery', '--out-dir', {str(tmp_path)!r}])\n"
            "loaded = sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'})\n"
            "print(code, loaded)\n"
        )
        assert run_fresh(script).splitlines()[-1] == "0 []"
        assert (tmp_path / "hover-recovery.csv").exists()

    def test_undisturbed_run_leaves_numpy_random_unimported(self):
        """An inactive disturbance model draws nothing, so a run without one
        never pays numpy.random's import."""
        script = (
            "import dataclasses, sys\n"
            "from cablelift import cli, harness\n"
            "config = harness.scenario_preset('hover-nominal')\n"
            "harness.run_closed_loop(dataclasses.replace(config, duration=0.1))\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert run_fresh(script).splitlines()[-1] == "False"

    def test_seed_override_changes_the_log(self, tmp_path, capsys):
        config = write(
            tmp_path,
            FAST_CONFIG
            + "disturbance:\n  eta: 1.0e-3\n",
        )
        for seed, name in ((3, "a"), (3, "b"), (4, "c")):
            out_dir = tmp_path / name
            assert (
                cli.main(
                    ["run", "--config", config, "--out-dir", str(out_dir), "--seed", str(seed)]
                )
                == 0
            )
        same = (tmp_path / "a" / "quick.csv").read_bytes()
        again = (tmp_path / "b" / "quick.csv").read_bytes()
        other = (tmp_path / "c" / "quick.csv").read_bytes()
        assert same == again
        assert same != other

    @pytest.mark.parametrize("source", [["--preset", "hover-nominal"], ["--config", None]])
    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys, source):
        if source[1] is None:
            source = ["--config", write(tmp_path, FAST_CONFIG)]
        code = cli.main(["run", *source, "--out-dir", str(tmp_path), "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'seed'" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestSweep:
    def test_grid_from_config(self, tmp_path, capsys):
        config = write(tmp_path, SWEEP_CONFIG)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", config, "--out-dir", str(out_dir)]) == 0
        table = (out_dir / "sweep.csv").read_text().splitlines()
        assert table[0].startswith("name,alpha,beta,nmpc_executions")
        assert len(table) == 3  # two alphas, one beta
        assert (out_dir / "grid_a0.2_b0.05.csv").exists()
        assert (out_dir / "grid_a0.02_b0.05.csv").exists()

    @pytest.mark.parametrize(
        "key, values", [("alphas", "[0.1, -0.5]"), ("betas", "[0.0]")]
    )
    def test_out_of_range_sweep_value_is_a_config_error(self, tmp_path, capsys, key, values):
        """alpha must be >= 0 and beta > 0; a bad value anywhere in the grid
        is refused before the first grid point runs and writes its files."""
        grid = {"alphas": "[0.2]", "betas": "[0.05]", key: values}
        text = (
            "schema_version: 1\npreset: hover-nominal\nname: grid\n"
            "scenario:\n  duration_s: 0.2\n"
            f"sweep:\n  alphas: {grid['alphas']}\n  betas: {grid['betas']}\n"
        )
        config = write(tmp_path, text)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", config, "--out-dir", str(out_dir)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_values_that_print_alike_get_their_own_files(self, tmp_path, capsys):
        """0.1 and 0.1000001 both print as 0.1 with :g; named by repr, each
        grid point writes its own files and sweep.csv row."""
        text = SWEEP_CONFIG.replace("[0.2, 0.02]", "[0.1, 0.1000001]")
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", write(tmp_path, text), "--out-dir", str(out_dir)]) == 0
        table = (out_dir / "sweep.csv").read_text().splitlines()
        names = [row.split(",")[0] for row in table[1:]]
        assert names == ["grid_a0.1_b0.05", "grid_a0.1000001_b0.05"]
        for name in names:
            assert (out_dir / f"{name}.csv").exists()
            assert (out_dir / f"{name}_summary.txt").exists()

    @pytest.mark.parametrize(
        "key, values", [("alphas", "[0.1, 0.2, 0.1]"), ("betas", "[0.05, 5.0e-2]")]
    )
    def test_repeated_sweep_value_is_a_config_error(self, tmp_path, capsys, key, values):
        """A value given twice would run the same grid point twice under one
        name; it is refused before any run."""
        grid = {"alphas": "[0.2]", "betas": "[0.05]", key: values}
        text = SWEEP_CONFIG.split("sweep:")[0] + (
            f"sweep:\n  alphas: {grid['alphas']}\n  betas: {grid['betas']}\n"
        )
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", write(tmp_path, text), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_default_grid_is_the_three_conditions(self, tmp_path, capsys):
        config = write(tmp_path, FAST_CONFIG)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", config, "--out-dir", str(out_dir)]) == 0
        table = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(table) == 4
        names = [row.split(",")[0] for row in table[1:]]
        assert names == ["quick_loose", "quick_medium", "quick_tight"]

    @pytest.mark.parametrize("text", [FAST_CONFIG, SWEEP_CONFIG], ids=["default-grid", "file-grid"])
    def test_rows_hold_the_summary_text(self, tmp_path, capsys, text):
        """Each sweep.csv value after name, alpha and beta is the text its key
        has in that grid point's summary file."""
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", write(tmp_path, text), "--out-dir", str(out_dir)]) == 0
        header, *rows = (out_dir / "sweep.csv").read_text().splitlines()
        keys = header.split(",")
        assert keys[:3] == ["name", "alpha", "beta"] and len(keys) > 3
        assert len(rows) == (3 if text == FAST_CONFIG else 2)
        for row in rows:
            cells = dict(zip(keys, row.split(",")))
            lines = (out_dir / f"{cells['name']}_summary.txt").read_text().splitlines()
            summary = dict(line.split(" = ", 1) for line in lines)
            assert [cells[key] for key in keys[3:]] == [summary[key] for key in keys[3:]]
            # the base names, quick and grid, hold no underscore
            label = cells["name"].split("_", 1)[1]
            if text == FAST_CONFIG:
                alpha, beta = harness.TRIGGER_PRESETS[label]
                assert (cells["alpha"], cells["beta"]) == (repr(alpha), repr(beta))
            else:
                assert label == f"a{cells['alpha']}_b{cells['beta']}"
