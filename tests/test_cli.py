"""End-to-end tests of the command-line interface and its exit codes."""
import argparse
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gnwave import verify
from gnwave.cli import _supplied_case, build_parser, main
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.io import read_diagnostics, read_snapshot, write_snapshot
from gnwave.models import FluidState, Formulation, ModelParams, VariableKind

BASE = """
[model]
epsilon = 0.1
mu = 0.5

[grid]
shape = 32

[integration]
dt = 0.02
t_end = 0.2

[output]
snapshot_stride = 5
"""


def write_config(tmp_path, extra: str = "", base: str = BASE):
    path = tmp_path / "run.ini"
    path.write_text(base + extra)
    return path


class TestArgumentHandling:
    def test_missing_config_exits_one(self, capsys):
        """Commands that need a config fail validation without one."""
        assert main(["run"]) == 1
        assert "config" in capsys.readouterr().err

    def test_nonexistent_config_exits_one(self, capsys):
        """A config path that does not exist is a validation failure."""
        assert main(["run", "--config", "/no/such/file.ini"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        """Usage errors map to the validation exit code."""
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        """--help is not an error."""
        assert main(["--help"]) == 0

    def test_malformed_override_exits_one(self, tmp_path, capsys):
        """Overrides must be section.key=value."""
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--set", "mu=0.5"]) == 1
        assert "override" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        """Config validation failures map to exit code 1."""
        cfg = write_config(tmp_path, "\n[model]\nmu = -1\n")
        assert main(["info", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--seed", "-5"], ["equivalence", "--seed", "-1"]],
        ids=["verify", "equivalence"],
    )
    def test_negative_seed_exits_one(self, argv, capsys, monkeypatch):
        """A negative seed is refused at parse time, before any case is built."""
        monkeypatch.setattr(verify, "band_limited_scalar", None)  # nothing may draw
        assert main(argv) == 1
        assert "--seed: expected an integer ≥ 0, got '-" in capsys.readouterr().err

    def test_bad_dispersion_arguments_exit_one(self, capsys):
        """A dispersion argument outside its range is a validation error."""
        assert main(["dispersion", "--periods", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: dispersion")


# each subcommand's option strings; a change here is a change of the CLI
OPTIONS = {
    "run": ["--config", "--set", "--output"],
    "verify": ["--seed"],
    "converge": ["--config", "--set", "--dt-values", "--resolutions", "--csv"],
    "dispersion": ["--modes", "--amplitude", "--periods", "--csv"],
    "equivalence": ["--seed", "--state"],
    "info": ["--config", "--set", "--output"],
}


class TestSurface:
    def test_options_per_subcommand(self):
        """Each subcommand takes exactly the options it reads."""
        (sub,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: [
                opt
                for action in p._actions
                if not isinstance(action, argparse._HelpAction)
                for opt in action.option_strings
            ]
            for name, p in sub.choices.items()
        }
        assert found == OPTIONS
        assert sum(map(len, found.values())) == 18

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--config", "f"],
            ["verify", "--set", "model.mu=1"],
            ["verify", "--output", "d"],
            ["dispersion", "--config", "f"],
            ["dispersion", "--set", "model.mu=1"],
            ["dispersion", "--output", "d"],
            ["equivalence", "--state", "s", "--config", "f"],
            ["equivalence", "--set", "model.mu=1"],
            ["equivalence", "--output", "d"],
            ["converge", "--output", "d"],
            ["run", "--seed", "4"],
            ["info", "--seed", "4"],
            ["converge", "--seed", "4"],
            ["dispersion", "--seed", "4"],
        ],
        ids=" ".join,
    )
    def test_removed_option_exits_one(self, argv, capsys):
        """A command refuses an option it would not read."""
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        """Every gnwave line of README's shell block parses."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        lines = [line for block in blocks for line in block.splitlines()]
        commands = [
            shlex.split(line, comments=True) for line in lines if line.startswith("gnwave ")
        ]
        assert len(commands) >= 7
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        """A short run exits 0 and leaves CSV plus snapshots behind."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "seed" not in text
        assert "completed" in text
        assert (out / "diagnostics.csv").exists()
        assert sorted(out.glob("snapshot_*.gnwv"))

    def test_summary_splits_iterations(self, tmp_path, capsys):
        """The summary line counts stage and record CG iterations apart; the
        record part is the sum of the CSV's cg_iterations."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        found = re.search(
            r"(\d+) elliptic iterations \((\d+) in stages, (\d+) in records\)",
            capsys.readouterr().out,
        )
        total, stages, records = (int(n) for n in found.groups())
        rows = read_diagnostics((out / "diagnostics.csv").read_text())
        assert records == sum(row["cg_iterations"] for row in rows) > 0
        assert stages > 0 and total == stages + records

    def test_rest_state_constant_diagnostics(self, tmp_path):
        """Integrating the rest state leaves every diagnostic constant."""
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        rows = read_diagnostics((out / "diagnostics.csv").read_text())
        assert len(rows) > 2
        for column in ("mass", "hamiltonian", "e_norm", "f_norm", "min_depth"):
            values = {row[column] for row in rows}
            assert len(values) == 1, column
        assert rows[0]["mass"] == 0.0
        assert rows[0]["min_depth"] == 1.0

    def test_restart_from_own_output_refused(self, tmp_path, capsys):
        """A restart from one of the snapshots a run into the same directory
        would replace is refused before anything is removed, however the path
        is spelled; a restart from a copy outside it runs."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "snapshot_000002.gnwv" in before
        capsys.readouterr()
        restart = tmp_path / "restart.ini"
        restart.write_text(BASE + "\n[initial]\ntype = file\npath = x.gnwv\n")
        argv = ["run", "--config", str(restart), "--set", "output.snapshot_stride=0"]
        argv += ["--output", str(out)]
        source = out / ".." / "out" / "snapshot_000002.gnwv"
        assert main([*argv, "--set", f"initial.path={source}"]) == 1
        assert "is one of the files a run into" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        copy = tmp_path / "restart.gnwv"
        copy.write_bytes(before["snapshot_000002.gnwv"])
        assert main([*argv, "--set", f"initial.path={copy}"]) == 0
        assert not list(out.glob("snapshot_*.gnwv"))

    @pytest.mark.parametrize(
        "override, code, message",
        [
            ("initial.amplitude=-15.0", 2, "depth must stay positive"),
            ("integration.dt=1e-310", 1, "holds no finite count of dt"),
        ],
    )
    def test_refused_rerun_keeps_previous_artifacts(
        self, override, code, message, tmp_path, capsys
    ):
        """A rerun refused for its initial depth or its step count exits
        before the sinks open: the good run's files stay byte-identical."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        argv = ["run", "--config", str(cfg), "--output", str(tmp_path / "out")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert "diagnostics.csv" in before and "snapshot_000002.gnwv" in before
        capsys.readouterr()
        assert main([*argv, "--set", override]) == code
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before

    def test_depth_collapse_exits_two(self, tmp_path, capsys):
        """A surface that empties the water column is a runtime failure."""
        cfg = write_config(
            tmp_path, "\n[initial]\ntype = gaussian\namplitude = -15.0\nwidth = 0.8\n"
        )
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_identical_invocations_byte_identical(self, tmp_path):
        """Same argv reproduces artifacts bit for bit."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
            payload = (out / "diagnostics.csv").read_bytes()
            for snap in sorted(out.glob("snapshot_*.gnwv")):
                payload += snap.read_bytes()
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_override_changes_run(self, tmp_path):
        """--set rewires the configured values before the run."""
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(cfg),
                    "--output",
                    str(out),
                    "--set",
                    "integration.t_end=0.04",
                ]
            )
            == 0
        )
        rows = read_diagnostics((out / "diagnostics.csv").read_text())
        assert rows[-1]["time"] == pytest.approx(0.04)


    def test_grid_too_coarse_for_record_writes_nothing(self, tmp_path, capsys):
        """A 10-point grid cannot carry an order-4 record: run and info exit 1
        with the record's message, and run creates no output directory."""
        argv = ["--config", str(write_config(tmp_path)), "--set", "grid.shape=10"]
        assert main(["info", *argv]) == 1
        assert "order 4 exceeds the resolution guard 3" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", *argv, "--output", str(out)]) == 1
        assert "order 4 exceeds the resolution guard 3" in capsys.readouterr().err
        assert not out.exists()


class TestRefusals:
    # (argv with "{cfg}" for a config of BASE plus extra text, the config's extra
    # text, exit code, stream, message)
    CASES = {
        "converge_snapshot_initial": (
            ["converge", "--config", "{cfg}", "--dt-values", "0.04", "0.02"],
            "\n[initial]\ntype = file\npath = state.gnwv\n",
            1,
            "err",
            "a snapshot-file initial condition cannot be rebuilt",
        ),
        "converge_set_without_config": (
            ["converge", "--set", "model.mu=0.5"], "", 1, "err", "--set requires --config"
        ),
        "converge_negative_dt": (
            ["converge", "--dt-values", "-1"],
            "",
            1,
            "err",
            "dt must be positive and finite, got -1.0",
        ),
        "converge_one_bad_dt": (
            ["converge", "--dt-values", "0.04", "inf"],
            "",
            1,
            "err",
            "dt must be positive and finite, got inf",
        ),
        "info_dt_warning": (
            ["info", "--config", "{cfg}", "--set", "integration.dt=0.5"],
            "",
            0,
            "out",
            "warning: dt exceeds the advisory stability bound",
        ),
        "info_tolerance_below_floor": (
            ["info", "--config", "{cfg}"],
            "\n[elliptic]\nrel_tolerance = 1e-15\n",
            1,
            "err",
            "[elliptic] *: rel_tolerance must lie in [1e-14, 1e-6], got 1e-15",
        ),
        "info_step_count_overflows": (
            ["info", "--config", "{cfg}", "--set", "integration.dt=1e-310"],
            "",
            1,
            "err",
            "t_end - t0 = 0.2 holds no finite count of dt = 1e-310",
        ),
        "run_step_count_overflows": (
            ["run", "--config", "{cfg}", "--output", "out", "--set", "integration.dt=1e-310"],
            "",
            1,
            "err",
            "t_end - t0 = 0.2 holds no finite count of dt = 1e-310",
        ),
        "run_tolerance_far_below_floor": (
            ["run", "--config", "{cfg}", "--output", "out"],
            "\n[elliptic]\nrel_tolerance = 1e-300\n",
            1,
            "err",
            "[elliptic] *: rel_tolerance must lie in [1e-14, 1e-6], got 1e-300",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_message_and_exit_code(self, case, tmp_path, monkeypatch, capsys):
        """Each documented refusal (and info's step warning) reports its
        message with its exit code, before any run starts."""
        argv, extra, code, stream, message = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, extra)
        runs = []
        monkeypatch.setattr(verify, "run", lambda *a, **k: runs.append(a))
        assert main([str(cfg) if arg == "{cfg}" else arg for arg in argv]) == code
        assert message in getattr(capsys.readouterr(), stream)
        assert runs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", [c for c, spec in CASES.items() if spec[2] != 0])
    def test_refusal_prints_nothing(self, case, tmp_path, monkeypatch, capsys):
        """A refused command writes its message to stderr and nothing to
        stdout: no configuration echo, grid line or run header first."""
        argv, extra, code, _, _ = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, extra)
        assert main([str(cfg) if arg == "{cfg}" else arg for arg in argv]) == code
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_default_suite_passes(self, capsys):
        """The documented reference invocation exits 0."""
        assert main(["verify", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert "seed = 7" in text
        assert "verification PASSED" in text
        assert "FAIL" not in text.replace("PASSED", "")


class TestStudies:
    def test_dispersion_passes(self, capsys, tmp_path):
        """Linear frequencies match the dispersion relation to 0.1%."""
        csv_path = tmp_path / "disp.csv"
        assert main(["dispersion", "--modes", "1", "2", "--csv", str(csv_path)]) == 0
        text = capsys.readouterr().out
        assert "seed" not in text
        assert "dispersion PASSED" in text
        assert csv_path.read_text().startswith("mode,wavenumber")

    def test_converge_dt_passes(self, capsys):
        """The default problem converges at the scheme's order in dt."""
        assert main(["converge", "--dt-values", "0.1", "0.05", "0.025"]) == 0
        assert "dt_convergence: PASS" in capsys.readouterr().out

    def test_converge_judges_dt_by_the_configured_scheme(self, tmp_path, capsys):
        """A configured SSP-RK3 run passes the dt study at its third order."""
        gaussian = "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n"
        argv = ["--config", str(write_config(tmp_path, gaussian))]
        argv += ["--set", "integration.scheme=rk3_ssp"]
        assert main(["converge", *argv, "--dt-values", "0.08", "0.04", "0.02"]) == 0
        assert "dt_convergence: PASS (decay rate 3.38 per doubling)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--dt-values", "0.1", "0.1"], ["--resolutions", "16", "16", "32"],
         ["--dt-values", "0.04", "0.02", "--resolutions", "16", "16"]],
        ids=["dt", "resolutions", "resolutions_after_dt"],
    )
    def test_converge_refuses_repeated_rungs(self, argv, capsys, monkeypatch):
        """A repeated dt or resolution exits 1 before any run."""
        monkeypatch.setattr(verify, "run", None)  # nothing may run
        assert main(["converge", *argv]) == 1
        assert "must be distinct" in capsys.readouterr().err

    def test_converge_labels_rungs_by_steps_taken(self, capsys):
        """At dt = 0.08 a run to t = 1 takes 12 full steps and a shorter 13th."""
        assert main(["converge"]) == 0
        text = capsys.readouterr().out
        assert "resolution     13: residual" in text
        assert "decay rate 4.11 per doubling" in text

    def test_converge_runs_configured_settings(self, tmp_path):
        """The configured smoothing and solve tolerance reach every run."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        tables = []
        for overrides in ([], ["mollifier.iota=0.5"], ["elliptic.rel_tolerance=1e-6"]):
            csv_path = tmp_path / "conv.csv"
            argv = ["converge", "--config", str(cfg), "--dt-values", "0.04", "0.02"]
            for item in overrides:
                argv += ["--set", item]
            assert main(argv + ["--csv", str(csv_path)]) == 0
            tables.append(csv_path.read_text())
        assert len(set(tables)) == 3

    def test_converge_refuses_smoothing_of_velocity_form(self, tmp_path, capsys):
        """gn_u with iota > 0 is refused by the config itself: converge, run
        and info exit 1 with the stepper's message, and run writes nothing."""
        cfg = write_config(tmp_path, "\n[mollifier]\niota = 0.5\n")
        argv = ["--config", str(cfg), "--set", "model.formulation=gn_u"]
        message = (
            "[mollifier] iota: spectral smoothing is defined for the "
            "conjugate-variable formulation only, got gn_u"
        )
        assert main(["converge", *argv, "--dt-values", "0.04", "0.02"]) == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "o"
        for command in ("run", "info"):
            assert main([command, *argv, "--output", str(out)]) == 1
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_converge_refuses_resolution_study_of_unequal_axes(self, tmp_path, capsys, monkeypatch):
        """Resolution rungs are square: a 2-D config whose axes differ is
        refused before any run, and its dt study alone still runs."""
        cfg = write_config(
            tmp_path,
            "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n",
            base=BASE.replace("shape = 32", "shape = 16 12"),
        )
        runs = []
        real_run = verify.run
        monkeypatch.setattr(verify, "run", lambda *a, **k: runs.append(a) or real_run(*a, **k))
        for extra in ([], ["--resolutions", "8", "16"]):
            assert main(["converge", "--config", str(cfg), *extra]) == 1
            assert "shape = 16 12 has unequal axes" in capsys.readouterr().err
        assert runs == []
        assert main(["converge", "--config", str(cfg), "--dt-values", "0.04", "0.02"]) == 0
        assert "dt_convergence: PASS" in capsys.readouterr().out
        assert runs


class TestEquivalence:
    def test_random_states_pass(self, capsys):
        """Both formulations agree on seeded random fields."""
        assert main(["equivalence", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        assert "seed = 3" in text
        assert "ALL PASS" in text

    def test_supplied_state_passes(self, tmp_path, capsys):
        """A stored snapshot can be fed through the equivalence checks."""
        from gnwave.verify import band_limited_scalar, band_limited_vector

        grid = PeriodicGrid((64,), (2.0 * np.pi,))
        rng = np.random.default_rng(11)
        state = FluidState(
            ScalarField(grid, band_limited_scalar(grid, rng, 4, 0.3)),
            VectorField(grid, band_limited_vector(grid, rng, 4, 0.5)),
            VariableKind.U_VARIABLE,
        )
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.9, formulation=Formulation.GN_U)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        assert main(["equivalence", "--state", str(path)]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_supplied_conjugate_state_is_converted(self, tmp_path):
        """A stored gn_v state enters the checks as the velocity u = 𝔗⁻¹(hv)."""
        from gnwave.models import u_from_v
        from gnwave.operators import BathymetryState
        from gnwave.verify import band_limited_vector

        grid = PeriodicGrid((32,), (2.0 * np.pi,))
        vel = VectorField(grid, band_limited_vector(grid, np.random.default_rng(5), 4, 0.5))
        state = FluidState(ScalarField.zeros(grid), vel, VariableKind.V_VARIABLE)
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.9)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        (_zeta, stored_u, stored, _bath), _sizes = _supplied_case(str(path))
        expected = u_from_v(state, stored, BathymetryState.flat(grid))
        assert stored.formulation is Formulation.GN_V
        assert np.array_equal(stored_u.data, expected.vel.data)

    def test_supplied_state_read_once(self, tmp_path, monkeypatch):
        """A stored snapshot is read and validated once: its header and its
        state come from the same read."""
        grid = PeriodicGrid((32,), (2.0 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.9, formulation=Formulation.GN_U)
        path = tmp_path / "state.gnwv"
        write_snapshot(FluidState.rest(grid, VariableKind.U_VARIABLE), params, path)
        reads = []
        read_bytes = Path.read_bytes

        def counted(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        (_zeta, _vel, stored, _bath), sizes = _supplied_case(str(path))
        assert reads == [path]
        assert stored == params
        assert sizes == (8, 16, 32)

    def test_snapshot_size_needs_multiple_of_8(self, tmp_path, capsys):
        """The coarsest rung n/4 must be an even grid size: 36 points are refused."""
        grid = PeriodicGrid((36,), (2.0 * np.pi,))
        state = FluidState.rest(grid, VariableKind.U_VARIABLE)
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.9, formulation=Formulation.GN_U)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        assert main(["equivalence", "--state", str(path)]) == 1
        assert "multiple of 8" in capsys.readouterr().err

    def test_snapshot_of_unequal_axes_rejected(self, tmp_path, capsys):
        """Identity ladders run square grids: a (64, 32) state whose x-modes
        19 and 20 lie beyond the 32-point rungs is refused, not checked in part."""
        grid = PeriodicGrid((64, 32), (2.0 * np.pi, 2.0 * np.pi))
        x, y = grid.coords
        zeta = 0.1 * np.cos(20 * x) + 0.1 * np.cos(y)
        vel = np.stack([0.1 * np.sin(19 * x), 0.05 * np.cos(2 * y)])
        state = FluidState(ScalarField(grid, zeta), VectorField(grid, vel), VariableKind.V_VARIABLE)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, ModelParams(epsilon=0.3, mu=0.8), path)
        assert main(["equivalence", "--state", str(path)]) == 1
        assert "the state's shape = 64 32 has unequal axes" in capsys.readouterr().err

    def test_varying_bottom_snapshot_rejected(self, tmp_path, capsys):
        """Stored states with bathymetry are refused with a clear message."""
        grid = PeriodicGrid((64,), (2.0 * np.pi,))
        state = FluidState.rest(grid, VariableKind.U_VARIABLE)
        params = ModelParams(epsilon=0.2, beta=0.3, mu=0.9, formulation=Formulation.GN_U)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        assert main(["equivalence", "--state", str(path)]) == 1
        assert "flat bottoms" in capsys.readouterr().err


class TestInfo:
    def test_prints_normalized_config(self, tmp_path, capsys):
        """info echoes the canonical config plus derived quantities."""
        cfg = write_config(tmp_path)
        assert main(["info", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert "seed" not in text
        assert "[model]" in text
        assert "retained modes" in text
        assert "advisory" in text

    def test_step_count_matches_run(self, tmp_path, capsys):
        """info counts the steps that run takes: 7 steps of 0.01 reach 0.07."""
        argv = ["--config", str(write_config(tmp_path)), "--set", "integration.t_end=0.07"]
        argv += ["--set", "integration.dt=0.01"]
        assert main(["info", *argv]) == 0
        assert "time stepping: 7 steps of dt = 0.01" in capsys.readouterr().out
        assert main(["run", *argv, "--output", str(tmp_path / "o")]) == 0
        assert "7 steps to t = 0.07" in capsys.readouterr().out

    def test_non_positive_depth_exits_two(self, tmp_path, capsys):
        """info refuses the state that run refuses, with the same message."""
        cfg = write_config(
            tmp_path, "\n[initial]\ntype = gaussian\namplitude = -15.0\nwidth = 0.8\n"
        )
        for argv in (["info"], ["run", "--output", str(tmp_path / "o")]):
            assert main([*argv, "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert "depth must stay positive" in captured.err
            assert captured.out == ""
