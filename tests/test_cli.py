"""End-to-end tests of the command-line interface and its exit codes."""
import numpy as np
import pytest

from gnwave.cli import main
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


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        """A short run exits 0 and leaves CSV plus snapshots behind."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "seed = 0" in text
        assert "completed" in text
        assert (out / "diagnostics.csv").exists()
        assert sorted(out.glob("snapshot_*.gnwv"))

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

    def test_depth_collapse_exits_two(self, tmp_path, capsys):
        """A surface that empties the water column is a runtime failure."""
        cfg = write_config(
            tmp_path, "\n[initial]\ntype = gaussian\namplitude = -15.0\nwidth = 0.8\n"
        )
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_identical_invocations_byte_identical(self, tmp_path):
        """Same argv and seed reproduce artifacts bit for bit."""
        cfg = write_config(tmp_path, "\n[initial]\ntype = gaussian\namplitude = 0.05\nwidth = 0.8\n")
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--output", str(out), "--seed", "4"]) == 0
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
        assert "seed = 0" in text
        assert "dispersion PASSED" in text
        assert csv_path.read_text().startswith("mode,wavenumber")

    def test_converge_dt_passes(self, capsys):
        """The default problem converges at the scheme's order in dt."""
        assert main(["converge", "--dt-values", "0.1", "0.05", "0.025"]) == 0
        assert "dt_convergence: PASS" in capsys.readouterr().out


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

    def test_snapshot_size_needs_multiple_of_8(self, tmp_path, capsys):
        """The coarsest rung n/4 must be an even grid size: 36 points are refused."""
        grid = PeriodicGrid((36,), (2.0 * np.pi,))
        state = FluidState.rest(grid, VariableKind.U_VARIABLE)
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.9, formulation=Formulation.GN_U)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        assert main(["equivalence", "--state", str(path)]) == 1
        assert "multiple of 8" in capsys.readouterr().err

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
        assert "seed = 0" in text
        assert "[model]" in text
        assert "retained modes" in text
        assert "advisory" in text

    def test_non_positive_depth_exits_two(self, tmp_path, capsys):
        """info refuses the state that run refuses, with the same message."""
        cfg = write_config(
            tmp_path, "\n[initial]\ntype = gaussian\namplitude = -15.0\nwidth = 0.8\n"
        )
        assert main(["info", "--config", str(cfg)]) == 2
        assert "depth must stay positive" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "depth must stay positive" in capsys.readouterr().err
