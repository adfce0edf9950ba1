"""Tests for configuration parsing, snapshots, diagnostics CSV, builders."""
import dataclasses
import io as stdio
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnwave import timeloop
from gnwave.diagnostics import DiagnosticsRecord
from gnwave.errors import ParseError, SnapshotFormatError, ValidationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.io import (
    _TABLE,
    DIAGNOSTIC_COLUMNS,
    BathymetrySpec,
    FileSinks,
    InitialSpec,
    OutputSpec,
    RunConfig,
    append_diagnostics,
    build_bathymetry,
    build_initial_state,
    load_config,
    read_diagnostics,
    read_snapshot,
    read_snapshot_with_params,
    save_config,
    write_snapshot,
)
from gnwave.models import FluidState, Formulation, ModelParams, VariableKind
from gnwave.operators import EllipticSolveConfig
from gnwave.regularization import MollifierSpec
from gnwave.solitary import solitary_wave_state
from gnwave.timeloop import IntegrationConfig, run

MINIMAL = """
[grid]
shape = 16

[integration]
dt = 0.01
t_end = 0.1
"""


def config_text(**replacements: str) -> str:
    """MINIMAL plus extra sections appended verbatim."""
    return MINIMAL + "\n" + "\n".join(replacements.values())


def random_state(grid: PeriodicGrid, seed: int = 0, kind=VariableKind.V_VARIABLE) -> FluidState:
    rng = np.random.default_rng(seed)
    return FluidState(
        ScalarField(grid, rng.standard_normal(grid.shape)),
        VectorField(grid, rng.standard_normal((grid.dim, *grid.shape))),
        kind,
        time=0.625,
    )


class TestLoadConfig:
    def test_minimal_defaults(self):
        """A config with only the required keys gets the documented defaults."""
        cfg = load_config(MINIMAL)
        assert cfg.params.epsilon == 1.0
        assert cfg.params.mu == 1.0
        assert cfg.params.formulation is Formulation.GN_V
        assert cfg.grid.shape == (16,)
        assert cfg.grid.lengths == (2.0 * np.pi,)
        assert cfg.integration.scheme == "rk4"
        assert cfg.integration.diag_stride == 1
        assert cfg.integration.snapshot_stride == 0
        assert cfg.integration.mollifier.iota == 0.0
        assert cfg.elliptic == EllipticSolveConfig()
        assert cfg.initial.kind == "rest"
        assert cfg.bathymetry.kind == "flat"
        assert cfg.output.directory == "out"
        assert cfg.output.formats == ("csv", "snapshot")

    def test_readme_shows_normalized_minimal_config(self):
        """README's minimal config is followed by its normalized form."""
        import re
        from pathlib import Path

        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert MINIMAL.lstrip() in blocks
        normalized = blocks[blocks.index(MINIMAL.lstrip()) + 1]
        assert normalized == save_config(load_config(MINIMAL))

    def test_negative_mu_rejected(self):
        """mu < 0 is a validation failure."""
        with pytest.raises(ValidationError, match="mu"):
            load_config(MINIMAL + "\n[model]\nmu = -1\n")

    def test_all_violations_listed(self):
        """One error message enumerates every violation, not just the first."""
        bad = "[model]\nmu = -1\nepsilon = frog\n\n[grid]\nshape = 17\n\n[junk]\na = 1\n"
        with pytest.raises(ValidationError) as excinfo:
            load_config(bad)
        message = str(excinfo.value)
        for needle in ("mu", "epsilon", "even", "unknown section", "dt"):
            assert needle in message

    def test_unknown_key_rejected(self):
        """Keys outside the documented schema, removed ones included, are refused."""
        for section, key in (
            ("model", "bogus"),
            ("model", "h_star_upper"),
            ("model", "h_star"),
            ("elliptic", "preconditioner"),
            ("elliptic", "warm_start"),
            ("elliptic", "max_iterations"),
            ("mollifier", "profile = smooth_bump\nr0"),
            ("mollifier", "profile = smooth_bump\nr1"),
        ):
            with pytest.raises(ValidationError, match="unknown key"):
                load_config(MINIMAL + f"\n[{section}]\n{key} = 3\n")

    @pytest.mark.parametrize("profile", ["", "profile = sharp_cutoff\n"], ids=["default", "named"])
    def test_mollifier_radii_refused_under_sharp_cutoff(self, profile):
        """The smooth profile's radii are constants, so r0 and r1 are unknown
        keys under the sharp cutoff too, named or by default, and no config
        saves them."""
        for key in ("r0", "r1"):
            text = MINIMAL + f"\n[mollifier]\niota = 0.1\n{profile}{key} = 0.3\n"
            with pytest.raises(ValidationError, match=f"\\[mollifier\\] {key}: unknown key"):
                load_config(text)
        saved = save_config(load_config(MINIMAL + f"\n[mollifier]\niota = 0.1\n{profile}"))
        assert "r0" not in saved and "r1" not in saved

    def test_unknown_section_rejected(self):
        """Sections outside the documented schema are refused."""
        with pytest.raises(ValidationError, match="unknown section"):
            load_config(MINIMAL + "\n[extras]\na = 1\n")

    def test_parse_error_carries_line(self):
        """Content before any section header reports its line number."""
        with pytest.raises(ParseError) as excinfo:
            load_config("x = 1\n[grid]\nshape = 16\n")
        assert excinfo.value.line == 1

    def test_malformed_line_rejected(self):
        """A line without the key = value shape is a parse error."""
        with pytest.raises(ParseError, match="malformed"):
            load_config("[grid]\nshape 16\n")

    def test_duplicate_key_rejected(self):
        """A key repeated in its section, or a repeated section, is a parse
        error that states its line once, in the config's own terms."""
        for text, line, message in (
            ("[grid]\nshape = 16\nshape = 32\n", 3, "key 'shape' in [grid] repeated"),
            ("[grid]\nshape = 16\n\n[grid]\nlengths = 1\n", 4, "section [grid] repeated"),
        ):
            with pytest.raises(ParseError) as excinfo:
                load_config(text)
            assert excinfo.value.line == line
            assert str(excinfo.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("dt", ["dt = 0.01\n", ""], ids=["with_dt", "without_dt"])
    def test_bad_stride_reported_under_output(self, dt):
        """A bad output stride is reported under [output], where it is
        written, also when [integration] is incomplete."""
        text = f"[grid]\nshape = 16\n\n[integration]\n{dt}t_end = 0.1\n\n[output]\n"
        for key, value, low in (("diag_stride", "0", 1), ("snapshot_stride", "-1", 0)):
            with pytest.raises(ValidationError) as excinfo:
                load_config(text + f"{key} = {value}\n")
            message = str(excinfo.value)
            assert f"[output] {key}: must be an integer ≥ {low}, got '{value}'" in message
            assert "[integration] *" not in message

    def test_overrides_applied(self):
        """Dotted overrides replace values before validation."""
        cfg = load_config(MINIMAL, overrides=["model.mu=0.25", "output.directory=elsewhere"])
        assert cfg.params.mu == 0.25
        assert cfg.output.directory == "elsewhere"

    def test_override_validated(self):
        """Overrides pass through the same validation as file values."""
        with pytest.raises(ValidationError, match="mu"):
            load_config(MINIMAL, overrides=["model.mu=-3"])

    def test_malformed_override_rejected(self):
        """An override without section.key=value shape is refused."""
        with pytest.raises(ValidationError, match="override"):
            load_config(MINIMAL, overrides=["mu=0.5"])

    def test_velocity_y_rejected_in_1d(self):
        """The second velocity component only exists on 2D grids."""
        text = MINIMAL + "\n[initial]\ntype = fourier_modes\nvelocity_y = 1 0.1 0.0\n"
        with pytest.raises(ValidationError, match="two-dimensional"):
            load_config(text)

    @pytest.mark.parametrize("section", ["initial", "bathymetry"])
    def test_refused_grid_reports_no_mode_arity(self, section):
        """Mode entries are judged against the grid only when it is accepted:
        with ``shape = 7 7`` refused, 2-D entries add no violation."""
        modes = (
            "[initial]\ntype = fourier_modes\nzeta = 1 1 0.1 0\nvelocity_y = 0 1 0.1 0\n"
            if section == "initial"
            else "[model]\nbeta = 0.1\n\n[bathymetry]\ntype = fourier_modes\nmodes = 1 1 0.1 0\n"
        )
        text = "[grid]\nshape = 7 7\n\n[integration]\ndt = 0.01\nt_end = 0.1\n\n" + modes
        with pytest.raises(ValidationError) as excinfo:
            load_config(text)
        message = str(excinfo.value)
        assert "(1 issue(s))" in message and "[grid] *:" in message

    def test_entry_arity_judged_on_the_grid(self):
        """A one-integer entry on a 2-D grid gets the arity message, once per key."""
        text = (
            MINIMAL.replace("shape = 16", "shape = 16 16")
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0 0.1 0 ; 1 0.1 0 ; 2 0.1 0\n"
        )
        with pytest.raises(ValidationError) as excinfo:
            load_config(text)
        message = str(excinfo.value)
        assert message.count("[initial] zeta:") == 1
        assert "each entry needs 2 mode integer(s), an amplitude and a phase, got '1 0.1 0'" in message

    def test_solitary_needs_dispersion(self):
        """The solitary-wave initial state requires mu > 0."""
        text = MINIMAL + "\n[model]\nmu = 0\n\n[initial]\ntype = solitary_wave\namplitude = 0.2\n"
        with pytest.raises(ValidationError, match="mu > 0"):
            load_config(text)

    def test_modes_outside_band_rejected(self):
        """Trig components beyond the retained spectral band are refused."""
        text = MINIMAL + "\n[initial]\ntype = fourier_modes\nzeta = 7 0.1 0.0\n"
        with pytest.raises(ValidationError, match="band"):
            load_config(text)

    @pytest.mark.parametrize("modes", ["a 0.1 0", "1 0.1", ";", None])
    def test_bottom_modes_reported_once(self, modes):
        """A malformed bottom ``modes`` is one violation; "required key missing"
        means the key is absent."""
        text = MINIMAL + "\n[model]\nbeta = 0.1\n\n[bathymetry]\ntype = fourier_modes\n"
        if modes is not None:
            text += f"modes = {modes}\n"
        with pytest.raises(ValidationError) as excinfo:
            load_config(text)
        message = str(excinfo.value)
        assert message.count("[bathymetry] modes:") == 1
        assert ("required key missing" in message) == (modes is None)

    def test_varying_bottom_needs_beta(self):
        """A non-flat bottom with beta = 0 is inconsistent."""
        text = MINIMAL + "\n[bathymetry]\ntype = gaussian_bump\namplitude = 0.1\nwidth = 1.0\n"
        with pytest.raises(ValidationError, match="beta"):
            load_config(text)

    def test_save_is_fixed_point(self):
        """save(load(x)) normalizes: loading it again reproduces the text."""
        rich = """
[model]
epsilon = 0.25
mu = 0.5
beta = 0.1
formulation = gn_v

[grid]
shape = 16 24
lengths = 6.0 5.0

[integration]
dt = 0.02
t_end = 1.0
scheme = rk3_ssp

[mollifier]
iota = 0.1
profile = smooth_bump

[initial]
type = fourier_modes
zeta = 1 0 0.05 0.0 ; 2 1 0.02 0.7
velocity_x = 1 0 0.03 0.0

[bathymetry]
type = gaussian_bump
amplitude = 0.2
width = 1.5

[output]
directory = results
snapshot_stride = 5
formats = csv
"""
        text1 = save_config(load_config(rich))
        text2 = save_config(load_config(text1))
        assert text1 == text2

    @given(
        epsilon=st.floats(0.0, 2.0),
        mu=st.floats(0.0, 3.0),
        dt=st.floats(1e-4, 0.5),
        length=st.floats(1.0, 50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, epsilon, mu, dt, length):
        """Any loadable numeric combination survives save/load unchanged."""
        text = (
            f"[model]\nepsilon = {epsilon!r}\nmu = {mu!r}\n\n"
            f"[grid]\nshape = 8\nlengths = {length!r}\n\n"
            f"[integration]\ndt = {dt!r}\nt_end = 1.0\n"
        )
        cfg = load_config(text)
        normalized = save_config(cfg)
        again = load_config(normalized)
        assert save_config(again) == normalized
        assert again.params == cfg.params
        assert again.integration == cfg.integration
        assert again.grid.compatible(cfg.grid)


MINIMAL_2D = MINIMAL.replace("shape = 16", "shape = 16 16")
BETA = "\n[model]\nbeta = 0.4\n"


def built_config(**settings) -> RunConfig:
    """The MINIMAL config built in code, with ``settings`` replaced."""
    return dataclasses.replace(load_config(MINIMAL), **settings)


MID = "center = 3.141592653589793"

# (config text or a config built in code, the block save_config writes for
# its [initial] or [bathymetry] section)
SAVED_BLOCKS = {
    "gaussian": (
        MINIMAL + "\n[initial]\ntype = gaussian\namplitude = 0.1\nwidth = 0.5\n",
        "[initial]\ntype = gaussian\namplitude = 0.1\nwidth = 0.5\n" + MID,
    ),
    "gaussian_built": (
        built_config(initial=InitialSpec(kind="gaussian", amplitude=0.1)),
        "[initial]\ntype = gaussian\namplitude = 0.1\nwidth = 1.0\n" + MID,
    ),
    "fourier_modes_1d": (
        MINIMAL
        + "\n[initial]\ntype = fourier_modes\n"
        + "zeta = 1 0.01 0.0 ; 2 0.005 0.5\nvelocity_x = 3 -0.02 1.5\n",
        "[initial]\ntype = fourier_modes\n"
        "zeta = 1 0.01 0.0 ; 2 0.005 0.5\nvelocity_x = 3 -0.02 1.5",
    ),
    "fourier_modes_2d": (
        MINIMAL_2D
        + "\n[initial]\ntype = fourier_modes\nzeta = 1 0 0.05 0.0\nvelocity_y = 0 1 0.01 0.25\n",
        "[initial]\ntype = fourier_modes\nzeta = 1 0 0.05 0.0\nvelocity_y = 0 1 0.01 0.25",
    ),
    "solitary_wave": (
        "[grid]\nshape = 128\nlengths = 50.0\n\n[integration]\ndt = 0.01\nt_end = 0.1\n"
        "\n[initial]\ntype = solitary_wave\namplitude = 0.2\n",
        "[initial]\ntype = solitary_wave\namplitude = 0.2",
    ),
    "initial_file": (
        MINIMAL + "\n[initial]\ntype = file\npath = ic.gnwv\n",
        "[initial]\ntype = file\npath = ic.gnwv",
    ),
    "gaussian_bump": (
        MINIMAL
        + BETA
        + "\n[bathymetry]\ntype = gaussian_bump\namplitude = 0.3\nwidth = 0.8\ncenter = 2.5\n",
        "[bathymetry]\ntype = gaussian_bump\namplitude = 0.3\nwidth = 0.8\ncenter = 2.5",
    ),
    "gaussian_bump_built": (
        built_config(
            params=ModelParams(beta=0.4),
            bathymetry=BathymetrySpec(kind="gaussian_bump", amplitude=0.3),
        ),
        "[bathymetry]\ntype = gaussian_bump\namplitude = 0.3\nwidth = 1.0\n" + MID,
    ),
    "bottom_fourier_modes": (
        MINIMAL_2D
        + BETA
        + "\n[bathymetry]\ntype = fourier_modes\nmodes = 1 1 0.15 0 ; 1 -1 0.15 0\n",
        "[bathymetry]\ntype = fourier_modes\nmodes = 1 1 0.15 0.0 ; 1 -1 0.15 0.0",
    ),
    "bottom_file": (
        MINIMAL + BETA + "\n[bathymetry]\ntype = file\npath = bottom.f64\n",
        "[bathymetry]\ntype = file\npath = bottom.f64",
    ),
}


# (`--set` overrides of MINIMAL, what the refusal says)
CONFIG_REFUSALS = {
    "out_of_choice": (
        ["model.formulation=gn_x"],
        "[model] formulation: must be one of ('gn_u', 'gn_v', 'bp', 'sv'), got 'gn_x'",
    ),
    "infinite_number": (["model.epsilon=inf"], "[model] epsilon: must be finite, got 'inf'"),
    "nan_number": (["model.mu=nan"], "[model] mu: must be finite, got 'nan'"),
    "malformed_numbers": (
        ["grid.lengths=1 x"],
        "[grid] lengths: expected whitespace-separated numbers, got '1 x'",
    ),
    "infinite_numbers": (["grid.lengths=inf"], "[grid] lengths: entries must be finite"),
    "malformed_integers": (
        ["grid.shape=16 x"],
        "[grid] shape: expected whitespace-separated integers, got '16 x'",
    ),
    "empty_path": (["initial.type=file", "initial.path="], "[initial] path: required key missing"),
    "infinite_mode_amplitude": (
        ["initial.type=fourier_modes", "initial.zeta=1 inf 0"],
        "[initial] zeta: amplitude and phase must be finite",
    ),
    "empty_directory": (["output.directory="], "[output] *: output directory must be non-empty"),
    "unknown_format": (
        ["output.formats=csv png"],
        "[output] *: unknown output format 'png', expected subset of ('csv', 'snapshot')",
    ),
    "bump_center_arity": (
        ["initial.type=gaussian", "initial.amplitude=0.1", "initial.width=0.5",
         "initial.center=1 2"],
        "[initial] center: needs 1 coordinate(s), got 2",
    ),
    "bump_width": (
        ["initial.type=gaussian", "initial.amplitude=0.1", "initial.width=0"],
        "[initial] width: must be positive, got 0.0",
    ),
    "solitary_amplitude": (
        ["initial.type=solitary_wave", "initial.amplitude=-0.1"],
        "[initial] amplitude: must be positive, got -0.1",
    ),
    "solitary_in_2d": (
        ["grid.shape=16 16", "initial.type=solitary_wave", "initial.amplitude=0.1"],
        "[initial] type: solitary_wave requires a one-dimensional grid",
    ),
}

# (offset into a 1-D GNWV1 file, bytes written there, what the refusal says)
SNAPSHOT_REFUSALS = {
    "dim_3": (5, (3).to_bytes(4, "little"), "header has dim = 3"),
    "unknown_formulation": (45, b"gn_x\0\0\0\0", "names an unknown formulation b'gn_x"),
    "invalid_grid": (
        9,
        (17).to_bytes(4, "little"),
        "header invalid: points per axis must be even and >= 8, got 17",
    ),
    "negative_mu": (
        37, struct.pack("<d", -1.0), "header invalid: mu must be a finite real >= 0, got -1.0"
    ),
    "nan_epsilon": (
        21,
        struct.pack("<d", float("nan")),
        "header invalid: epsilon must be a finite real >= 0, got nan",
    ),
    "hydrostatic_with_mu": (
        45, b"sv\0\0\0\0\0\0", "header invalid: the hydrostatic variant requires mu = 0"
    ),
    "nan_time": (
        53, struct.pack("<d", float("nan")), "header invalid: time must be finite, got nan"
    ),
}


def patched_snapshot(path: Path, case: str) -> str:
    """A 1-D gn_v rest snapshot at ``path`` with the bytes of refusal ``case``
    written over it; returns the refusal's message."""
    offset, patch, message = SNAPSHOT_REFUSALS[case]
    write_snapshot(FluidState.rest(PeriodicGrid((16,), (2.0 * np.pi,))), ModelParams(), path)
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    return message


class TestDocumentedRefusals:
    @pytest.mark.parametrize("case", [*CONFIG_REFUSALS, *SNAPSHOT_REFUSALS])
    def test_info_refuses_with_exit_one(self, case, tmp_path, monkeypatch, capsys):
        """Each refusal of a config value or a snapshot header stops ``gnwave
        info`` with exit code 1 and its documented message."""
        from gnwave.cli import main

        monkeypatch.chdir(tmp_path)
        Path("run.ini").write_text(MINIMAL)
        if case in CONFIG_REFUSALS:
            overrides, message = CONFIG_REFUSALS[case]
        else:
            message = patched_snapshot(Path("state.gnwv"), case)
            overrides = ["initial.type=file", "initial.path=state.gnwv"]
        argv = ["info", "--config", "run.ini"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        assert message in capsys.readouterr().err


class TestConfigSchema:
    @pytest.mark.parametrize("case", SAVED_BLOCKS)
    def test_saved_block(self, case):
        """Each section kind saves to a fixed text, saving what loads from
        the saved text reproduces it, and the loaded config builds the same
        fields."""
        source, block = SAVED_BLOCKS[case]
        cfg = load_config(source) if isinstance(source, str) else source
        saved = save_config(cfg)
        header = block.split("\n", 1)[0]
        assert [b for b in saved.split("\n\n") if b.startswith(header)] == [block]
        back = load_config(saved)
        assert save_config(back) == saved
        if "file" not in (cfg.initial.kind, cfg.bathymetry.kind):
            assert np.array_equal(
                build_initial_state(back).zeta.data, build_initial_state(cfg).zeta.data
            )
            assert np.array_equal(build_bathymetry(back).b.data, build_bathymetry(cfg).b.data)

    @pytest.mark.parametrize("spec", [InitialSpec, BathymetrySpec])
    def test_file_kind_needs_path(self, spec):
        """A file kind built in code without a path is refused, so no config
        saves an empty path."""
        with pytest.raises(ValidationError, match="requires a .*path"):
            spec(kind="file")

    @pytest.mark.parametrize("spec", [InitialSpec, BathymetrySpec])
    def test_unknown_kind_refused(self, spec):
        """A kind built in code is checked as a loaded one is."""
        with pytest.raises(ValidationError, match="type must be one of"):
            spec(kind="bogus")

    def test_every_setting_has_one_key(self):
        """Each setting of a run config is reached by exactly one key of the
        schema, and each key reaches a setting."""
        owners = {
            "params": ModelParams,
            "grid": PeriodicGrid,
            "integration": IntegrationConfig,
            "integration.mollifier": MollifierSpec,
            "elliptic": EllipticSolveConfig,
            "initial": InitialSpec,
            "bathymetry": BathymetrySpec,
            "output": OutputSpec,
        }
        settings = {
            f"{owner}.{field.name}"
            for owner, cls in owners.items()
            for field in dataclasses.fields(cls)
        }
        settings -= {"integration.mollifier", "initial.modes"}  # reached through their parts
        settings |= {f"initial.modes.{name}" for name in ("zeta", "velocity_x", "velocity_y")}
        assert sorted(key.field for key in _TABLE) == sorted(settings)


class TestSnapshots:
    def test_round_trip_bit_exact_2d(self, tmp_path):
        """Write/read reproduces every payload bit and the header fields."""
        grid = PeriodicGrid((16, 12), (6.0, 5.0))
        state = random_state(grid, seed=3)
        params = ModelParams(epsilon=0.3, beta=0.0, mu=0.7)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        back = read_snapshot(path, expected_grid=grid)
        assert np.array_equal(back.zeta.data, state.zeta.data)
        assert np.array_equal(back.vel.data, state.vel.data)
        assert back.time == state.time
        assert back.kind is VariableKind.V_VARIABLE

    def test_kind_recovered_from_formulation(self, tmp_path):
        """A state saved from a u-variable formulation reads back as one."""
        grid = PeriodicGrid((16,), (7.0,))
        state = random_state(grid, seed=4, kind=VariableKind.U_VARIABLE)
        params = ModelParams(formulation=Formulation.GN_U)
        path = tmp_path / "state.gnwv"
        write_snapshot(state, params, path)
        assert read_snapshot(path).kind is VariableKind.U_VARIABLE

    @pytest.mark.parametrize("case", SNAPSHOT_REFUSALS)
    def test_header_refusals(self, case, tmp_path):
        """Each documented header refusal is a snapshot format error."""
        message = patched_snapshot(tmp_path / "state.gnwv", case)
        with pytest.raises(SnapshotFormatError) as info:
            read_snapshot(tmp_path / "state.gnwv")
        assert message in str(info.value)

    def test_truncated_payload_rejected(self, tmp_path):
        """A payload shorter than the header promises is a length error."""
        grid = PeriodicGrid((16,), (7.0,))
        path = tmp_path / "state.gnwv"
        write_snapshot(random_state(grid), ModelParams(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotFormatError, match="payload"):
            read_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path):
        """A file cut inside the header is reported as truncated."""
        grid = PeriodicGrid((16,), (7.0,))
        path = tmp_path / "state.gnwv"
        write_snapshot(random_state(grid), ModelParams(), path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        """Files that do not start with the magic bytes are refused."""
        path = tmp_path / "state.gnwv"
        path.write_bytes(b"NOTGNWV" + b"\0" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_cross_resolution_rejected(self, tmp_path):
        """Reading against a different expected grid is refused."""
        grid = PeriodicGrid((16,), (7.0,))
        path = tmp_path / "state.gnwv"
        write_snapshot(random_state(grid), ModelParams(), path)
        other = PeriodicGrid((32,), (7.0,))
        with pytest.raises(SnapshotFormatError, match="resolution"):
            read_snapshot(path, expected_grid=other)

    def test_header_reader(self, tmp_path):
        """A snapshot reads back as the params and the state's grid and time
        it was written from."""
        grid = PeriodicGrid((16, 12), (6.0, 5.0))
        params = ModelParams(epsilon=0.25, beta=0.0, mu=1.5, formulation=Formulation.BP)
        path = tmp_path / "state.gnwv"
        write_snapshot(random_state(grid, kind=VariableKind.U_VARIABLE), params, path)
        stored, state = read_snapshot_with_params(path)
        assert stored == params
        assert state.grid.compatible(grid)
        assert state.time == 0.625

    @pytest.mark.parametrize(
        "formulation, kind",
        [(Formulation.GN_V, VariableKind.U_VARIABLE), (Formulation.GN_U, VariableKind.V_VARIABLE)],
    )
    def test_writer_refuses_the_other_kind(self, formulation, kind, tmp_path):
        """A state of the variable kind the formulation does not evolve is not
        written: it would read back as the other kind."""
        path = tmp_path / "state.gnwv"
        state = random_state(PeriodicGrid((16,), (7.0,)), kind=kind)
        with pytest.raises(ValidationError, match=f"got the {kind.value}-variable state"):
            write_snapshot(state, ModelParams(formulation=formulation), path)
        assert not path.exists()


def make_record(time: float = 0.1) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        time=time,
        mass=1.0 / 3.0,
        hamiltonian=np.pi,
        e_norm=1.0,
        f_norm=2.0,
        vorticity_l2=0.0,
        min_depth=0.875,
        cg_iterations=7,
    )


@pytest.mark.parametrize(
    "field", ["time", "mass", "hamiltonian", "e_norm", "f_norm", "vorticity_l2", "min_depth"]
)
def test_record_refuses_non_finite_field(field):
    """A record with a non-finite value is refused, naming the field."""
    with pytest.raises(ValidationError, match=f"diagnostics field {field} is not finite"):
        dataclasses.replace(make_record(), **{field: float("nan")})


HEADER = ",".join(DIAGNOSTIC_COLUMNS) + "\n"


def csv_text(*records: DiagnosticsRecord) -> str:
    """The header row, then one row per record."""
    buf = stdio.StringIO()
    for rec in records:
        append_diagnostics(rec, buf)
    return HEADER + buf.getvalue()


class TestDiagnosticsCsv:
    def test_header_written_once(self, tmp_path):
        """The sinks write the fixed header exactly once, at the top."""
        with FileSinks(tmp_path, ModelParams(), formats=("csv",)) as sinks:
            sinks.record(make_record(0.0))
            sinks.record(make_record(0.1))
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == HEADER.rstrip("\n")
        assert len(lines) == 3

    def test_rows_append_to_a_pipe(self):
        """Appending a row only writes, so it serves a stream that cannot
        seek, and it writes no header."""
        read_end, write_end = os.pipe()
        with open(write_end, "w") as pipe:
            append_diagnostics(make_record(0.0), pipe)
            append_diagnostics(make_record(0.1), pipe)
        with open(read_end) as pipe:
            text = pipe.read()
        assert text == csv_text(make_record(0.0), make_record(0.1))[len(HEADER):]
        assert [row["time"] for row in read_diagnostics(HEADER + text)] == [0.0, 0.1]

    def test_reparse_reproduces_doubles(self):
        """17 significant digits round-trip every double exactly."""
        row = read_diagnostics(csv_text(make_record()))[0]
        assert row["mass"] == 1.0 / 3.0
        assert row["hamiltonian"] == np.pi
        assert row["cg_iterations"] == 7
        assert type(row["cg_iterations"]) is int and type(row["time"]) is float

    def test_bad_header_rejected(self):
        """Re-parsing text with a foreign header fails loudly."""
        with pytest.raises(ValidationError, match="header"):
            read_diagnostics("a,b\n1,2\n")

    def test_row_with_wrong_cell_count_rejected(self):
        """A row with a cell too few is refused, naming its cell count."""
        text = csv_text(make_record()).rstrip("\n").rsplit(",", 1)[0] + "\n"
        with pytest.raises(ValidationError, match="diagnostics row has 7 cells"):
            read_diagnostics(text)

    def test_monotone_time_from_run(self, tmp_path):
        """A short integration emits a strictly increasing time column."""
        cfg = load_config(
            MINIMAL
            + "\n[model]\nepsilon = 0.1\nmu = 0.5\n"
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0.01 0.0\n"
        )
        bath = build_bathymetry(cfg)
        state = build_initial_state(cfg)
        with FileSinks(tmp_path, cfg.params, formats=("csv",)) as sinks:
            run(state, cfg.params, bath, cfg.integration, cfg.elliptic, sinks=sinks)
        rows = read_diagnostics((tmp_path / "diagnostics.csv").read_text())
        times = [row["time"] for row in rows]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert times[-1] == pytest.approx(0.1)

    def test_empty_run_header_only(self, tmp_path):
        """Sinks that never receive a record leave a header-only CSV."""
        with FileSinks(tmp_path, ModelParams(), formats=("csv",)):
            pass
        assert (tmp_path / "diagnostics.csv").read_text() == HEADER


class TestBuilders:
    def test_rest_state(self):
        """The default initial condition is the rest state in the right kind."""
        cfg = load_config(MINIMAL + "\n[model]\nformulation = gn_u\n")
        state = build_initial_state(cfg)
        assert state.kind is VariableKind.U_VARIABLE
        assert not state.zeta.data.any()
        assert not state.vel.data.any()

    def test_gaussian_surface(self):
        """The Gaussian hump peaks at its center with zero velocity."""
        text = MINIMAL + "\n[initial]\ntype = gaussian\namplitude = 0.1\nwidth = 0.5\n"
        cfg = load_config(text)
        state = build_initial_state(cfg)
        mid = cfg.grid.shape[0] // 2
        assert state.zeta.data[mid] == pytest.approx(0.1, rel=1e-12)
        assert float(np.max(state.zeta.data)) == pytest.approx(0.1, rel=1e-12)
        assert not state.vel.data.any()
        assert float(np.mean(state.zeta.data)) > 0.0

    def test_gaussian_is_periodic(self):
        """A wide bump keeps spectral accuracy: the image sum is smooth."""
        text = (
            "[grid]\nshape = 64\nlengths = 4.0\n\n[integration]\ndt = 0.01\nt_end = 0.1\n"
            "\n[initial]\ntype = gaussian\namplitude = 1.0\nwidth = 1.5\n"
        )
        cfg = load_config(text)
        state = build_initial_state(cfg)
        spectrum = np.abs(np.fft.rfft(state.zeta.data))
        assert spectrum[-1] / spectrum[0] < 1e-12

    def test_fourier_modes_2d(self):
        """Trig components evaluate to the stated cosine sum."""
        text = (
            "[grid]\nshape = 24 24\n\n[integration]\ndt = 0.01\nt_end = 0.1\n"
            "\n[initial]\ntype = fourier_modes\n"
            "zeta = 1 0 0.05 0.0 ; 2 1 0.02 0.7\nvelocity_y = 0 1 0.01 0.0\n"
        )
        cfg = load_config(text)
        state = build_initial_state(cfg)
        x, y = cfg.grid.coords
        expected = 0.05 * np.cos(x) + 0.02 * np.cos(2 * x + y + 0.7)
        assert np.max(np.abs(state.zeta.data - expected)) < 1e-14
        assert np.max(np.abs(state.vel.data[1] - 0.01 * np.cos(y))) < 1e-14
        assert not state.vel.data[0].any()

    def test_solitary_comes_from_oracle(self):
        """The solitary initial state equals the verification oracle output."""
        text = (
            "[grid]\nshape = 128\nlengths = 50.0\n\n[integration]\ndt = 0.01\nt_end = 0.1\n"
            "\n[initial]\ntype = solitary_wave\namplitude = 0.2\n"
        )
        cfg = load_config(text)
        state = build_initial_state(cfg)
        oracle = solitary_wave_state(cfg.grid, 0.2, cfg.params)
        assert np.array_equal(state.zeta.data, oracle.zeta.data)
        assert np.array_equal(state.vel.data, oracle.vel.data)

    def test_file_initial_condition(self, tmp_path):
        """A stored snapshot can seed a run on the same grid and parameters."""
        path = tmp_path / "ic.gnwv"
        base = load_config(MINIMAL)
        state = random_state(base.grid, seed=9)
        write_snapshot(state, base.params, path)
        cfg = load_config(MINIMAL + f"\n[initial]\ntype = file\npath = {path}\n")
        back = build_initial_state(cfg)
        assert np.array_equal(back.zeta.data, state.zeta.data)
        assert back.time == state.time

    def test_file_kind_mismatch_rejected(self, tmp_path):
        """A u-variable snapshot cannot seed a v-variable formulation."""
        path = tmp_path / "ic.gnwv"
        base = load_config(MINIMAL)
        state = random_state(base.grid, seed=9, kind=VariableKind.U_VARIABLE)
        write_snapshot(state, ModelParams(formulation=Formulation.GN_U), path)
        cfg = load_config(MINIMAL + f"\n[initial]\ntype = file\npath = {path}\n")
        with pytest.raises(ValidationError, match="variable"):
            build_initial_state(cfg)

    def test_file_param_mismatch_rejected(self, tmp_path):
        """A snapshot written under different scaling parameters is refused."""
        path = tmp_path / "ic.gnwv"
        base = load_config(MINIMAL)
        write_snapshot(random_state(base.grid), base.params, path)
        cfg = load_config(
            MINIMAL + "\n[model]\nmu = 0.5\n" + f"\n[initial]\ntype = file\npath = {path}\n"
        )
        with pytest.raises(ValidationError, match="epsilon, beta, mu"):
            build_initial_state(cfg)

    def test_bathymetry_bump(self):
        """The bottom bump has the stated amplitude and carries beta."""
        text = (
            MINIMAL
            + "\n[model]\nbeta = 0.4\n"
            + "\n[bathymetry]\ntype = gaussian_bump\namplitude = 0.3\nwidth = 0.8\n"
        )
        cfg = load_config(text)
        bath = build_bathymetry(cfg)
        assert float(np.max(bath.b.data)) == pytest.approx(0.3, rel=1e-10)
        assert bath.beta == 0.4
        assert bath.beta_grad_b is not None

    def test_bathymetry_file_length_checked(self, tmp_path):
        """A raw bottom file must hold exactly one double per grid point."""
        path = tmp_path / "bottom.f64"
        path.write_bytes(b"\0" * 8 * 15)
        text = MINIMAL + "\n[model]\nbeta = 0.4\n" + f"\n[bathymetry]\ntype = file\npath = {path}\n"
        cfg = load_config(text)
        with pytest.raises(ValidationError, match="bytes"):
            build_bathymetry(cfg)

    def test_bathymetry_file_round_trip(self, tmp_path):
        """A raw bottom file is read back exactly, row-major."""
        rng = np.random.default_rng(5)
        bottom = rng.standard_normal(16)
        path = tmp_path / "bottom.f64"
        path.write_bytes(bottom.astype("<f8").tobytes())
        text = MINIMAL + "\n[model]\nbeta = 0.4\n" + f"\n[bathymetry]\ntype = file\npath = {path}\n"
        bath = build_bathymetry(load_config(text))
        assert np.array_equal(bath.b.data, bottom)


class TestFileSinks:
    def test_run_writes_artifacts(self, tmp_path):
        """An integration leaves a CSV plus numbered snapshots on disk."""
        cfg = load_config(
            MINIMAL
            + "\n[model]\nepsilon = 0.1\nmu = 0.5\n"
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0.01 0.0\n"
            + "\n[output]\nsnapshot_stride = 5\n"
        )
        bath = build_bathymetry(cfg)
        state = build_initial_state(cfg)
        with FileSinks(tmp_path, cfg.params) as sinks:
            run(state, cfg.params, bath, cfg.integration, cfg.elliptic, sinks=sinks)
        snapshots = sorted(tmp_path.glob("snapshot_*.gnwv"))
        assert len(snapshots) >= 2
        first = read_snapshot(snapshots[0], expected_grid=cfg.grid)
        last = read_snapshot(snapshots[-1], expected_grid=cfg.grid)
        assert first.time == 0.0
        assert last.time == pytest.approx(0.1)
        assert (tmp_path / "diagnostics.csv").exists()

    def test_rerun_replaces_artifacts(self, tmp_path):
        """A rerun into the same directory leaves only its own artifacts: a
        shorter run its own snapshots, a run without csv no CSV, and files
        the sinks never write stay."""
        cfg = load_config(
            MINIMAL
            + "\n[model]\nepsilon = 0.1\nmu = 0.5\n"
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0.01 0.0\n"
            + "\n[output]\nsnapshot_stride = 2\n"
        )

        def run_to(t_end, formats):
            icfg = dataclasses.replace(cfg.integration, t_end=t_end)
            state, bath = build_initial_state(cfg), build_bathymetry(cfg)
            with FileSinks(tmp_path, cfg.params, formats) as sinks:
                return run(state, cfg.params, bath, icfg, cfg.elliptic, sinks=sinks)

        run_to(0.1, ("csv", "snapshot"))
        assert len(list(tmp_path.glob("snapshot_*.gnwv"))) == 6
        kept = [tmp_path / "snapshot_final.gnwv", tmp_path / "notes.csv"]
        for path in kept:
            path.write_text("")
        report = run_to(0.04, ("snapshot",))
        snaps = sorted(tmp_path.glob("snapshot_[0-9]*.gnwv"))
        assert [p.name for p in snaps] == [f"snapshot_{i:06d}.gnwv" for i in range(3)]
        assert read_snapshot(snaps[-1]).time == report.final_state.time
        assert not (tmp_path / "diagnostics.csv").exists()
        assert all(path.exists() for path in kept)

    def test_sinks_without_csv_take_no_records(self, tmp_path, monkeypatch):
        """Sinks that write no CSV offer no record sink, so the run computes
        no record; sinks with a CSV get every record."""
        cfg = load_config(
            MINIMAL
            + "\n[model]\nepsilon = 0.1\nmu = 0.5\n"
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0.01 0.0\n"
        )
        collect, calls = timeloop.collect_record, []

        def counted(*args, **kwargs):
            calls.append(args)
            return collect(*args, **kwargs)

        monkeypatch.setattr(timeloop, "collect_record", counted)

        def run_into(name, formats):
            with FileSinks(tmp_path / name, cfg.params, formats) as sinks:
                state, bath = build_initial_state(cfg), build_bathymetry(cfg)
                return run(state, cfg.params, bath, cfg.integration, cfg.elliptic, sinks=sinks)

        report = run_into("plain", ("snapshot",))
        assert calls == []
        assert report.record_iterations == 0
        assert not (tmp_path / "plain" / "diagnostics.csv").exists()
        report = run_into("csv", ("csv",))
        rows = read_diagnostics((tmp_path / "csv" / "diagnostics.csv").read_text())
        assert len(calls) == len(rows) == report.steps + 1
        assert report.record_iterations == sum(row["cg_iterations"] for row in rows) > 0

    def test_sinks_without_snapshots_wrap_no_states(self, tmp_path, monkeypatch):
        """Sinks that write no snapshots offer no snapshot sink, so a run at
        snapshot stride 1 builds as many field wrappers over 8 steps as over
        4 when no strided record falls between."""
        from gnwave import grid as grid_module

        cfg = load_config(
            MINIMAL
            + "\n[model]\nepsilon = 0.1\nmu = 0.5\n"
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0.01 0.0\n"
        )
        bath, state = build_bathymetry(cfg), build_initial_state(cfg)
        calls = []
        wrap = grid_module._as_readonly
        monkeypatch.setattr(
            grid_module, "_as_readonly", lambda *args: calls.append(None) or wrap(*args)
        )

        def wrappers(steps):
            calls.clear()
            icfg = dataclasses.replace(
                cfg.integration, t_end=steps * 0.01, diag_stride=10**6, snapshot_stride=1
            )
            with FileSinks(tmp_path / str(steps), cfg.params, ("csv",)) as sinks:
                report = run(state, cfg.params, bath, icfg, cfg.elliptic, sinks=sinks)
            assert report.steps == steps
            assert not list((tmp_path / str(steps)).glob("snapshot_*.gnwv"))
            return len(calls)

        assert wrappers(4) == wrappers(8)

    def test_two_runs_byte_identical(self, tmp_path):
        """Identical configs produce byte-identical CSV and snapshots."""
        cfg = load_config(
            MINIMAL
            + "\n[model]\nepsilon = 0.1\nmu = 0.5\n"
            + "\n[initial]\ntype = fourier_modes\nzeta = 1 0.01 0.0\n"
            + "\n[output]\nsnapshot_stride = 5\n"
        )
        outputs = []
        for name in ("a", "b"):
            directory = tmp_path / name
            bath = build_bathymetry(cfg)
            state = build_initial_state(cfg)
            with FileSinks(directory, cfg.params) as sinks:
                run(state, cfg.params, bath, cfg.integration, cfg.elliptic, sinks=sinks)
            payload = (directory / "diagnostics.csv").read_bytes()
            for snap in sorted(directory.glob("snapshot_*.gnwv")):
                payload += snap.read_bytes()
            outputs.append(payload)
        assert outputs[0] == outputs[1]
