"""Configuration parsing, initial-state and bathymetry construction, and
snapshot/diagnostics persistence.

The run configuration is a line-oriented ``key = value`` text with sections
in brackets. Snapshots are a small self-describing binary format (magic
``GNWV1``, little-endian header, raw float64 payload). Diagnostics go to CSV
with 17 significant digits so every double round-trips exactly.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
import struct
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import ParseError, SnapshotFormatError, ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import FluidState, Formulation, ModelParams, _kind_for
from .operators import BathymetryState, EllipticSolveConfig
from .regularization import _PROFILES, MollifierSpec
from .solitary import solitary_wave_state
from .timeloop import _SCHEMES, IntegrationConfig

__all__ = [
    "DIAGNOSTIC_COLUMNS",
    "SNAPSHOT_MAGIC",
    "BathymetrySpec",
    "FileSinks",
    "InitialSpec",
    "OutputSpec",
    "RunConfig",
    "SnapshotHeader",
    "append_diagnostics",
    "build_bathymetry",
    "build_initial_state",
    "load_config",
    "read_diagnostics",
    "read_snapshot",
    "read_snapshot_header",
    "save_config",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"GNWV1"
DIAGNOSTIC_COLUMNS = (
    "time",
    "mass",
    "hamiltonian",
    "e_norm",
    "f_norm",
    "vorticity_l2",
    "min_depth",
    "cg_iterations",
)

_INITIAL_KINDS = ("rest", "gaussian", "fourier_modes", "solitary_wave", "file")
_BATHYMETRY_KINDS = ("flat", "gaussian_bump", "fourier_modes", "file")
_OUTPUT_FORMATS = ("csv", "snapshot")
_FIELD_KEYS = ("zeta", "velocity_x", "velocity_y")

# one trig component: (integer mode vector, amplitude, phase)
ModeEntry = tuple[tuple[int, ...], float, float]


# ------------------------------------------------------------------ spec types


def _as_entries(entries: Iterable) -> tuple[ModeEntry, ...]:
    out = []
    for entry in entries:
        mode, amplitude, phase = entry
        out.append((tuple(int(m) for m in mode), float(amplitude), float(phase)))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class InitialSpec:
    """Initial-condition choice: rest state, Gaussian hump in the surface,
    an explicit list of trig components per field, the traveling-wave
    profile from the verification oracle, or a previously saved snapshot.

    Only the fields relevant to ``kind`` are meaningful; the rest keep
    their defaults. ``modes`` maps field names (``zeta``, ``velocity_x``,
    ``velocity_y``) to trig components.
    """

    kind: str = "rest"
    amplitude: float = 0.0
    width: float = 1.0
    center: tuple[float, ...] = ()
    path: str = ""
    modes: dict[str, tuple[ModeEntry, ...]] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _INITIAL_KINDS:
            raise ValidationError(
                f"initial type must be one of {_INITIAL_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(
            self, "modes", {k: _as_entries(v) for k, v in self.modes.items()}
        )


@dataclasses.dataclass(frozen=True)
class BathymetrySpec:
    """Bottom-shape choice: flat, Gaussian bump, trig components, or a raw
    float64 file holding one value per grid point."""

    kind: str = "flat"
    amplitude: float = 0.0
    width: float = 1.0
    center: tuple[float, ...] = ()
    path: str = ""
    modes: tuple[ModeEntry, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _BATHYMETRY_KINDS:
            raise ValidationError(
                f"bathymetry type must be one of {_BATHYMETRY_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "modes", _as_entries(self.modes))


@dataclasses.dataclass(frozen=True)
class OutputSpec:
    """Where run artifacts go and which formats are written."""

    directory: str = "out"
    formats: tuple[str, ...] = _OUTPUT_FORMATS

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValidationError("output directory must be non-empty")
        given = tuple(self.formats)
        for fmt in given:
            if fmt not in _OUTPUT_FORMATS:
                raise ValidationError(
                    f"unknown output format {fmt!r}, expected subset of {_OUTPUT_FORMATS}"
                )
        # canonical order, duplicates collapsed
        object.__setattr__(
            self, "formats", tuple(f for f in _OUTPUT_FORMATS if f in given)
        )


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated run description assembled from one config text."""

    params: ModelParams
    grid: PeriodicGrid
    integration: IntegrationConfig
    elliptic: EllipticSolveConfig = dataclasses.field(default_factory=EllipticSolveConfig)
    initial: InitialSpec = dataclasses.field(default_factory=InitialSpec)
    bathymetry: BathymetrySpec = dataclasses.field(default_factory=BathymetrySpec)
    output: OutputSpec = dataclasses.field(default_factory=OutputSpec)


# ------------------------------------------------------------------- ini layer


def _parse_ini(text: str) -> dict[str, dict[str, str]]:
    """Parse ``key = value`` sections into a nested dict of raw strings."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=None,
        strict=True,
        interpolation=None,
        empty_lines_in_values=False,
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError(
            f"line {exc.lineno}: key/value before any [section] header", exc.lineno
        ) from exc
    except (configparser.DuplicateOptionError, configparser.DuplicateSectionError) as exc:
        line = exc.lineno or 0
        raise ParseError(f"line {line}: {exc.message}", line) from exc
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else 0
        raise ParseError(f"line {line}: malformed line (expected key = value)", line) from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _apply_overrides(
    mapping: dict[str, dict[str, str]], overrides: Sequence[str]
) -> dict[str, dict[str, str]]:
    out = {name: dict(values) for name, values in mapping.items()}
    for item in overrides:
        key_part, eq, value = item.partition("=")
        section, dot, key = key_part.strip().partition(".")
        if not eq or not dot or not section or not key:
            raise ValidationError(
                f"override {item!r} is malformed, expected section.key=value"
            )
        out.setdefault(section, {})[key.strip()] = value.strip()
    return out


class _SectionView:
    """Typed access to one section's raw strings, accumulating violations."""

    def __init__(self, name: str, raw: dict[str, str], violations: list[str]):
        self.name = name
        self._raw = raw
        self._violations = violations
        self._seen: set[str] = set()

    def error(self, key: str, reason: str) -> None:
        self._violations.append(f"[{self.name}] {key}: {reason}")

    def take(self, key: str) -> str | None:
        self._seen.add(key)
        return self._raw.get(key)

    def unknown_keys(self) -> list[str]:
        return [k for k in self._raw if k not in self._seen]

    # typed getters return None when the key is missing or malformed;
    # malformed values are recorded as violations.

    def str_(self, key: str) -> str | None:
        raw = self.take(key)
        return None if raw is None else raw.strip()

    def choice(self, key: str, choices: Sequence[str]) -> str | None:
        value = self.str_(key)
        if value is not None and value not in choices:
            self.error(key, f"must be one of {tuple(choices)}, got {value!r}")
            return None
        return value

    def float_(self, key: str, required: bool = False) -> float | None:
        raw = self.take(key)
        if raw is None:
            if required:
                self.error(key, "required key missing")
            return None
        try:
            value = float(raw)
        except ValueError:
            self.error(key, f"not a number: {raw!r}")
            return None
        if not math.isfinite(value):
            self.error(key, f"must be finite, got {raw!r}")
            return None
        return value

    def int_(self, key: str) -> int | None:
        raw = self.take(key)
        if raw is None:
            return None
        try:
            return int(raw, 10)
        except ValueError:
            self.error(key, f"not an integer: {raw!r}")
            return None

    def int_list(self, key: str, required: bool = False) -> tuple[int, ...] | None:
        raw = self.take(key)
        if raw is None:
            if required:
                self.error(key, "required key missing")
            return None
        try:
            return tuple(int(tok, 10) for tok in raw.split())
        except ValueError:
            self.error(key, f"expected whitespace-separated integers, got {raw!r}")
            return None

    def float_list(self, key: str) -> tuple[float, ...] | None:
        raw = self.take(key)
        if raw is None:
            return None
        try:
            values = tuple(float(tok) for tok in raw.split())
        except ValueError:
            self.error(key, f"expected whitespace-separated numbers, got {raw!r}")
            return None
        if not all(math.isfinite(v) for v in values):
            self.error(key, "entries must be finite")
            return None
        return values

    def mode_entries(self, key: str, dim: int) -> tuple[ModeEntry, ...] | None:
        """Parse ``m… amplitude phase`` groups separated by ``;``."""
        raw = self.take(key)
        if raw is None:
            return None
        entries: list[ModeEntry] = []
        for chunk in raw.split(";"):
            tokens = chunk.split()
            if not tokens:
                continue
            if len(tokens) != dim + 2:
                self.error(
                    key,
                    f"each entry needs {dim} mode integer(s), an amplitude and a "
                    f"phase, got {chunk.strip()!r}",
                )
                return None
            try:
                mode = tuple(int(tok, 10) for tok in tokens[:dim])
                amplitude = float(tokens[dim])
                phase = float(tokens[dim + 1])
            except ValueError:
                self.error(key, f"malformed entry {chunk.strip()!r}")
                return None
            if not (math.isfinite(amplitude) and math.isfinite(phase)):
                self.error(key, "amplitude and phase must be finite")
                return None
            entries.append((mode, amplitude, phase))
        if not entries:
            self.error(key, "no entries given")
            return None
        return tuple(entries)

    def build(self, cls: type, **values):
        """``cls`` from the keys the text sets, its own defaults for the rest;
        a refusal is recorded as a ``*`` violation and gives None."""
        try:
            return cls(**{k: v for k, v in values.items() if v is not None})
        except ValidationError as exc:
            self.error("*", str(exc))
            return None


# --------------------------------------------------------------- config build


def _check_entries_in_band(
    view: _SectionView, key: str, entries: tuple[ModeEntry, ...], grid: PeriodicGrid
) -> None:
    cutoffs = tuple(n // 3 for n in grid.shape)
    for mode, _amp, _phase in entries:
        if any(abs(m) > cut for m, cut in zip(mode, cutoffs)):
            view.error(
                key,
                f"mode {mode} lies outside the retained spectral band "
                f"(|m_i| <= {cutoffs})",
            )


def _gaussian_keys(view: _SectionView, grid: PeriodicGrid | None) -> dict:
    """Amplitude, width > 0 and center (mid-domain by default) of a bump."""
    amplitude = view.float_("amplitude", required=True)
    width = view.float_("width", required=True)
    center = view.float_list("center")
    if grid is not None:
        if center is not None and len(center) != grid.dim:
            view.error("center", f"needs {grid.dim} coordinate(s), got {len(center)}")
            center = None
        if center is None:
            center = tuple(0.5 * ell for ell in grid.lengths)
    if width is not None and width <= 0.0:
        view.error("width", f"must be positive, got {width}")
        width = None
    return {"amplitude": amplitude, "width": width, "center": center}


def _path_key(view: _SectionView) -> str | None:
    path = view.str_("path")
    if not path:
        view.error("path", "required key missing")
    return path


def _build_initial_spec(
    view: _SectionView,
    grid: PeriodicGrid | None,
    params: ModelParams | None,
) -> InitialSpec | None:
    kind = view.choice("type", _INITIAL_KINDS) or InitialSpec.kind
    keys: dict = {}
    if kind == "gaussian":
        keys = _gaussian_keys(view, grid)
    elif kind == "fourier_modes":
        dim = grid.dim if grid is not None else 1
        modes: dict[str, tuple[ModeEntry, ...]] = {}
        for key in _FIELD_KEYS:
            entries = view.mode_entries(key, dim)
            if entries is None:
                continue
            if key == "velocity_y" and dim == 1:
                view.error(key, "only valid on two-dimensional grids")
                continue
            if grid is not None:
                _check_entries_in_band(view, key, entries, grid)
            modes[key] = entries
        keys = {"modes": modes}
    elif kind == "solitary_wave":
        amplitude = view.float_("amplitude", required=True)
        if amplitude is not None and amplitude <= 0.0:
            view.error("amplitude", f"must be positive, got {amplitude}")
            amplitude = None
        if grid is not None and grid.dim != 1:
            view.error("type", "solitary_wave requires a one-dimensional grid")
        if params is not None and (params.mu <= 0.0 or params.epsilon <= 0.0):
            view.error(
                "type", "solitary_wave requires mu > 0 and epsilon > 0"
            )
        keys = {"amplitude": amplitude}
    elif kind == "file":
        keys = {"path": _path_key(view)}
    return view.build(InitialSpec, kind=kind, **keys)


def _build_bathymetry_spec(
    view: _SectionView,
    grid: PeriodicGrid | None,
    params: ModelParams | None,
) -> BathymetrySpec | None:
    kind = view.choice("type", _BATHYMETRY_KINDS) or BathymetrySpec.kind
    if kind != "flat" and params is not None and params.beta == 0.0:
        view.error("type", "a varying bottom requires beta > 0, got beta = 0")
    keys: dict = {}
    if kind == "gaussian_bump":
        keys = _gaussian_keys(view, grid)
    elif kind == "fourier_modes":
        dim = grid.dim if grid is not None else 1
        entries = view.mode_entries("modes", dim)
        if entries is None:
            view.error("modes", "required key missing")
        elif grid is not None:
            _check_entries_in_band(view, "modes", entries, grid)
        keys = {"modes": entries}
    elif kind == "file":
        keys = {"path": _path_key(view)}
    return view.build(BathymetrySpec, kind=kind, **keys)


_SECTIONS = (
    "model",
    "grid",
    "integration",
    "mollifier",
    "elliptic",
    "initial",
    "bathymetry",
    "output",
)


def load_config(text: str, overrides: Sequence[str] = ()) -> RunConfig:
    """Parse and validate a config text into a :class:`RunConfig`.

    Parsing failures raise :class:`ParseError` with the offending line
    number. Validation raises one :class:`ValidationError` that lists every
    malformed, unknown or out-of-choice key across all sections, plus the
    first refusal of each section's object (``mu = -1`` with
    ``epsilon = -2`` reports only epsilon). Keys the text leaves out take
    the defaults of the objects they configure. ``overrides`` are
    ``section.key=value`` strings applied before validation.
    """
    mapping = _apply_overrides(_parse_ini(text), overrides)
    violations: list[str] = []
    views = {
        name: _SectionView(name, mapping.get(name, {}), violations)
        for name in _SECTIONS
    }
    for name in mapping:
        if name not in _SECTIONS:
            violations.append(f"[{name}]: unknown section")

    # --- model
    mv = views["model"]
    params = mv.build(
        ModelParams,
        formulation=mv.choice("formulation", [f.value for f in Formulation]),
        epsilon=mv.float_("epsilon"),
        beta=mv.float_("beta"),
        mu=mv.float_("mu"),
        h_star=mv.float_("h_star"),
    )

    # --- grid
    gv = views["grid"]
    grid: PeriodicGrid | None = None
    shape = gv.int_list("shape", required=True)
    lengths = gv.float_list("lengths")
    if shape is not None:
        if lengths is None:
            lengths = tuple(2.0 * math.pi for _ in shape)
        grid = gv.build(PeriodicGrid, shape=shape, lengths=lengths)

    # --- mollifier
    ov = views["mollifier"]
    mollifier = ov.build(
        MollifierSpec,
        iota=ov.float_("iota"),
        profile=ov.choice("profile", _PROFILES),
        r0=ov.float_("r0"),
        r1=ov.float_("r1"),
    )

    # --- output (holds the strides fed into the integration config)
    wv = views["output"]
    strides = {key: wv.int_(key) for key in ("diag_stride", "snapshot_stride")}
    formats = wv.str_("formats")
    output = wv.build(
        OutputSpec,
        directory=wv.str_("directory"),
        formats=None if formats is None else tuple(formats.split()),
    )

    # --- integration
    iv = views["integration"]
    integration: IntegrationConfig | None = None
    dt = iv.float_("dt", required=True)
    t_end = iv.float_("t_end", required=True)
    scheme = iv.choice("scheme", _SCHEMES)
    if dt is not None and t_end is not None:
        integration = iv.build(
            IntegrationConfig, dt=dt, t_end=t_end, scheme=scheme, mollifier=mollifier, **strides
        )

    # --- elliptic
    ev = views["elliptic"]
    max_iter_raw = ev.str_("max_iterations")
    max_iterations: int | None = None
    if max_iter_raw is not None and max_iter_raw.lower() != "none":
        try:
            max_iterations = int(max_iter_raw, 10)
        except ValueError:
            ev.error("max_iterations", f"not an integer or 'none': {max_iter_raw!r}")
    elliptic = ev.build(
        EllipticSolveConfig,
        rel_tolerance=ev.float_("rel_tolerance"),
        max_iterations=max_iterations,
    )

    # --- initial condition and bathymetry
    initial = _build_initial_spec(views["initial"], grid, params)
    bathymetry = _build_bathymetry_spec(views["bathymetry"], grid, params)

    for view in views.values():
        for key in view.unknown_keys():
            view.error(key, "unknown key")

    if violations:
        raise ValidationError(
            f"configuration invalid ({len(violations)} issue(s)): "
            + "; ".join(violations)
        )
    assert params is not None and grid is not None  # guarded by violations
    assert integration is not None and elliptic is not None and output is not None
    assert initial is not None and bathymetry is not None
    return RunConfig(
        params=params,
        grid=grid,
        integration=integration,
        elliptic=elliptic,
        initial=initial,
        bathymetry=bathymetry,
        output=output,
    )


# ---------------------------------------------------------------- config save


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_entry(entry: ModeEntry) -> str:
    mode, amplitude, phase = entry
    return " ".join(
        [*(str(m) for m in mode), _fmt_float(amplitude), _fmt_float(phase)]
    )


def save_config(cfg: RunConfig) -> str:
    """Serialize a :class:`RunConfig` to canonical config text.

    The output is normalized: fixed section and key order, defaults
    materialized, floats in shortest round-trip decimal form. For any text
    ``x`` accepted by :func:`load_config`,
    ``save_config(load_config(x))`` is a fixed point of the load/save pair.
    """
    params, grid, icfg = cfg.params, cfg.grid, cfg.integration
    moll, ecfg = icfg.mollifier, cfg.elliptic
    lines: list[str] = []

    lines += [
        "[model]",
        f"epsilon = {_fmt_float(params.epsilon)}",
        f"beta = {_fmt_float(params.beta)}",
        f"mu = {_fmt_float(params.mu)}",
        f"formulation = {params.formulation.value}",
        f"h_star = {_fmt_float(params.h_star)}",
        "",
        "[grid]",
        "shape = " + " ".join(str(n) for n in grid.shape),
        "lengths = " + " ".join(_fmt_float(ell) for ell in grid.lengths),
        "",
        "[integration]",
        f"dt = {_fmt_float(icfg.dt)}",
        f"t_end = {_fmt_float(icfg.t_end)}",
        f"scheme = {icfg.scheme}",
        "",
        "[mollifier]",
        f"iota = {_fmt_float(moll.iota)}",
        f"profile = {moll.profile}",
        f"r0 = {_fmt_float(moll.r0)}",
        f"r1 = {_fmt_float(moll.r1)}",
        "",
        "[elliptic]",
        f"rel_tolerance = {_fmt_float(ecfg.rel_tolerance)}",
        "max_iterations = "
        + ("none" if ecfg.max_iterations is None else str(ecfg.max_iterations)),
        "",
        "[initial]",
        f"type = {cfg.initial.kind}",
    ]
    ini = cfg.initial
    if ini.kind == "gaussian":
        lines += [
            f"amplitude = {_fmt_float(ini.amplitude)}",
            f"width = {_fmt_float(ini.width)}",
            "center = " + " ".join(_fmt_float(c) for c in ini.center),
        ]
    elif ini.kind == "fourier_modes":
        for key in _FIELD_KEYS:
            if key in ini.modes:
                lines.append(
                    f"{key} = " + " ; ".join(_fmt_entry(e) for e in ini.modes[key])
                )
    elif ini.kind == "solitary_wave":
        lines.append(f"amplitude = {_fmt_float(ini.amplitude)}")
    elif ini.kind == "file":
        lines.append(f"path = {ini.path}")

    bat = cfg.bathymetry
    lines += ["", "[bathymetry]", f"type = {bat.kind}"]
    if bat.kind == "gaussian_bump":
        lines += [
            f"amplitude = {_fmt_float(bat.amplitude)}",
            f"width = {_fmt_float(bat.width)}",
            "center = " + " ".join(_fmt_float(c) for c in bat.center),
        ]
    elif bat.kind == "fourier_modes":
        lines.append("modes = " + " ; ".join(_fmt_entry(e) for e in bat.modes))
    elif bat.kind == "file":
        lines.append(f"path = {bat.path}")

    lines += [
        "",
        "[output]",
        f"directory = {cfg.output.directory}",
        f"diag_stride = {icfg.diag_stride}",
        f"snapshot_stride = {icfg.snapshot_stride}",
        "formats = " + " ".join(cfg.output.formats),
        "",
    ]
    return "\n".join(lines)


# ------------------------------------------------------------- field builders


def _periodic_gaussian(
    grid: PeriodicGrid, center: Sequence[float], width: float
) -> np.ndarray:
    """Periodized Gaussian bump with unit peak at ``center`` (mid-domain
    when empty).

    The periodic image sum factorizes per axis; enough images are added
    that the truncated tail is below double-precision resolution.
    """
    out = np.ones(grid.shape)
    for axis in range(grid.dim):
        x = grid.axis_coords[axis]
        length = grid.lengths[axis]
        c = float(center[axis]) if center else 0.5 * length
        images = min(64, int(math.ceil((40.0 * width + 0.5 * length) / length)))
        g = np.zeros_like(x)
        for n_img in range(-images, images + 1):
            g += np.exp(-((x - c + n_img * length) ** 2) / (2.0 * width * width))
        shape = [1] * grid.dim
        shape[axis] = x.size
        out = out * g.reshape(shape)
    return out


def _trig_sum(grid: PeriodicGrid, entries: Iterable[ModeEntry]) -> np.ndarray:
    """Σ amplitude·cos(2π m·x/L + phase) on the grid."""
    out = np.zeros(grid.shape)
    coords = grid.coords
    for mode, amplitude, phase in entries:
        arg = np.full(grid.shape, float(phase))
        for axis, m in enumerate(mode):
            arg = arg + (2.0 * np.pi * m / grid.lengths[axis]) * coords[axis]
        out += amplitude * np.cos(arg)
    return out


def build_bathymetry(cfg: RunConfig) -> BathymetryState:
    """Materialize the configured bottom shape on the configured grid."""
    grid, spec = cfg.grid, cfg.bathymetry
    if spec.kind == "flat":
        data = np.zeros(grid.shape)
    elif spec.kind == "gaussian_bump":
        data = spec.amplitude * _periodic_gaussian(grid, spec.center, spec.width)
    elif spec.kind == "fourier_modes":
        data = _trig_sum(grid, spec.modes)
    else:  # file
        raw = Path(spec.path).read_bytes()
        expected = grid.size * 8
        if len(raw) != expected:
            raise ValidationError(
                f"bathymetry file {spec.path!r} holds {len(raw)} bytes, expected "
                f"{expected} (float64 per grid point, row-major)"
            )
        data = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).astype(float)
    return BathymetryState(ScalarField(grid, data), cfg.params.beta)


def build_initial_state(cfg: RunConfig) -> FluidState:
    """Materialize the configured initial condition on the configured grid.

    The velocity entries are interpreted directly as the formulation's own
    velocity variable. The Gaussian hump keeps its nonzero mean (mass is a
    conserved quantity of the run, not normalized away here). A snapshot
    file must match the grid, the variable kind of the configured
    formulation, and ε, β, μ exactly.
    """
    grid, spec = cfg.grid, cfg.initial
    kind = cfg.params.expected_kind
    if spec.kind == "rest":
        return FluidState.rest(grid, kind)
    if spec.kind == "gaussian":
        zeta = spec.amplitude * _periodic_gaussian(grid, spec.center, spec.width)
        return FluidState(ScalarField(grid, zeta), VectorField.zeros(grid), kind)
    if spec.kind == "fourier_modes":
        zeta = _trig_sum(grid, spec.modes.get("zeta", ()))
        vel = np.zeros((grid.dim, *grid.shape))
        vel[0] = _trig_sum(grid, spec.modes.get("velocity_x", ()))
        if grid.dim == 2:
            vel[1] = _trig_sum(grid, spec.modes.get("velocity_y", ()))
        return FluidState(ScalarField(grid, zeta), VectorField(grid, vel), kind)
    if spec.kind == "solitary_wave":
        return solitary_wave_state(grid, spec.amplitude, cfg.params, kind=kind)
    # file
    header, state = _read_snapshot_file(Path(spec.path))
    _require_snapshot_grid(header, grid)
    if state.kind is not kind:
        raise ValidationError(
            f"snapshot {spec.path!r} stores the {state.kind.value}-variable, the "
            f"configured formulation needs the {kind.value}-variable"
        )
    stored = (header.epsilon, header.beta, header.mu)
    wanted = (cfg.params.epsilon, cfg.params.beta, cfg.params.mu)
    if stored != wanted:
        raise ValidationError(
            f"snapshot {spec.path!r} was written with (epsilon, beta, mu) = "
            f"{stored}, the configuration says {wanted}"
        )
    return state


# ------------------------------------------------------------------ snapshots


@dataclasses.dataclass(frozen=True)
class SnapshotHeader:
    """Self-describing metadata stored ahead of the snapshot payload."""

    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    epsilon: float
    beta: float
    mu: float
    formulation: Formulation
    time: float

    @property
    def dim(self) -> int:
        return len(self.shape)


def _header_format(dim: int) -> str:
    """struct layout of the GNWV1 header that follows the magic."""
    return f"<I{dim}I{dim}d3d8sd"


def write_snapshot(state: FluidState, params: ModelParams, path: str | Path) -> None:
    """Write one state to ``path`` in the GNWV1 binary layout.

    Layout: magic ``GNWV1``; little-endian header (dim as u32, per-axis
    point counts as u32, per-axis box lengths as f64, ε/β/μ as f64, the
    formulation name as 8 NUL-padded ASCII bytes, time as f64); payload of
    row-major float64 fields, surface elevation first, then the velocity
    components in axis order.
    """
    grid = state.grid
    header = SNAPSHOT_MAGIC + struct.pack(
        _header_format(grid.dim),
        grid.dim,
        *grid.shape,
        *grid.lengths,
        params.epsilon,
        params.beta,
        params.mu,
        params.formulation.value.encode("ascii").ljust(8, b"\0"),
        state.time,
    )
    payload = np.concatenate(
        [state.zeta.data[np.newaxis], state.vel.data], axis=0
    ).astype("<f8")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload.tobytes(order="C"))


def _unpack_header(raw: bytes, path: Path, fmt: str) -> tuple[tuple, int]:
    """The values of ``fmt`` after the magic, and the offset past them."""
    end = len(SNAPSHOT_MAGIC) + struct.calcsize(fmt)
    if end > len(raw):
        raise SnapshotFormatError(
            f"snapshot {str(path)!r} is truncated: header needs {end} bytes, "
            f"file has {len(raw)}"
        )
    return struct.unpack_from(fmt, raw, len(SNAPSHOT_MAGIC)), end


def _read_snapshot_file(path: Path) -> tuple[SnapshotHeader, FluidState]:
    raw = path.read_bytes()
    if raw[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"snapshot {str(path)!r} does not start with the GNWV1 magic"
        )
    (dim,), _ = _unpack_header(raw, path, "<I")
    if dim not in (1, 2):
        raise SnapshotFormatError(f"snapshot {str(path)!r} header has dim = {dim}")
    values, offset = _unpack_header(raw, path, _header_format(dim))
    epsilon, beta, mu, form_raw, time = values[1 + 2 * dim :]
    try:
        formulation = Formulation(form_raw.rstrip(b"\0").decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"snapshot {str(path)!r} names an unknown formulation {form_raw!r}"
        ) from exc
    header = SnapshotHeader(
        shape=tuple(int(n) for n in values[1 : 1 + dim]),
        lengths=tuple(float(ell) for ell in values[1 + dim : 1 + 2 * dim]),
        epsilon=float(epsilon),
        beta=float(beta),
        mu=float(mu),
        formulation=formulation,
        time=float(time),
    )
    try:
        grid = PeriodicGrid(header.shape, header.lengths)
    except ValidationError as exc:
        raise SnapshotFormatError(f"snapshot {str(path)!r} header invalid: {exc}") from exc
    count = (1 + dim) * grid.size
    expected = count * 8
    got = len(raw) - offset
    if got != expected:
        raise SnapshotFormatError(
            f"snapshot {str(path)!r} payload is {got} bytes, expected {expected} "
            f"({1 + dim} fields of {grid.size} float64 values)"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=offset, count=count)
    data = data.reshape((1 + dim, *grid.shape)).astype(float)
    state = FluidState(
        ScalarField(grid, data[0]),
        VectorField(grid, data[1:]),
        _kind_for(formulation),
        time=header.time,
    )
    return header, state


def _require_snapshot_grid(header: SnapshotHeader, expected: PeriodicGrid) -> None:
    if header.shape != expected.shape or header.lengths != expected.lengths:
        raise SnapshotFormatError(
            f"snapshot resolution {header.shape} on box {header.lengths} does not "
            f"match the expected grid {expected.shape} on {expected.lengths}"
        )


def read_snapshot(path: str | Path, expected_grid: PeriodicGrid | None = None) -> FluidState:
    """Read a GNWV1 snapshot back into a state (bit-exact round trip).

    ``expected_grid`` rejects cross-resolution reads. The variable kind is
    recovered from the stored formulation name.
    """
    header, state = _read_snapshot_file(Path(path))
    if expected_grid is not None:
        _require_snapshot_grid(header, expected_grid)
    return state


def read_snapshot_header(path: str | Path) -> SnapshotHeader:
    """Read only the self-describing header of a GNWV1 snapshot."""
    header, _state = _read_snapshot_file(Path(path))
    return header


# ---------------------------------------------------------------- diagnostics


def _fmt_sig(value: float) -> str:
    return format(float(value), ".17g")


def append_diagnostics(record: DiagnosticsRecord, stream: TextIO) -> None:
    """Append one CSV row; the header row is written first on empty streams.

    Columns are fixed (time, mass, hamiltonian, e_norm, f_norm,
    vorticity_l2, min_depth, cg_iterations), floats carry 17 significant
    digits so re-parsing reproduces every double exactly.
    """
    if stream.tell() == 0:
        stream.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
    row = [
        _fmt_sig(record.time),
        _fmt_sig(record.mass),
        _fmt_sig(record.hamiltonian),
        _fmt_sig(record.e_norm),
        _fmt_sig(record.f_norm),
        _fmt_sig(record.vorticity_l2),
        _fmt_sig(record.min_depth),
        str(int(record.cg_iterations)),
    ]
    stream.write(",".join(row) + "\n")


def read_diagnostics(text: str) -> list[dict[str, float]]:
    """Parse diagnostics CSV text back into one dict per row."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or tuple(lines[0].split(",")) != DIAGNOSTIC_COLUMNS:
        raise ValidationError(
            f"diagnostics header must be {','.join(DIAGNOSTIC_COLUMNS)}"
        )
    rows: list[dict[str, float]] = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(DIAGNOSTIC_COLUMNS):
            raise ValidationError(f"diagnostics row has {len(cells)} cells: {line!r}")
        row = {key: float(cell) for key, cell in zip(DIAGNOSTIC_COLUMNS, cells)}
        row["cg_iterations"] = int(cells[-1], 10)
        rows.append(row)
    return rows


class FileSinks:
    """Persistence sinks for the time loop: diagnostics CSV plus numbered
    GNWV1 snapshot files under one directory.

    Which artifacts are produced follows ``formats``; an empty run still
    leaves a header-only CSV. One instance owns its files exclusively.
    """

    def __init__(
        self,
        directory: str | Path,
        params: ModelParams,
        formats: Sequence[str] = _OUTPUT_FORMATS,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._params = params
        self._formats = tuple(formats)
        self._snapshot_index = 0
        self._stream: TextIO | None = None
        if "csv" in self._formats:
            self._stream = open(self.directory / "diagnostics.csv", "w", newline="")
            self._stream.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")

    @property
    def csv_path(self) -> Path:
        return self.directory / "diagnostics.csv"

    def record(self, rec: DiagnosticsRecord) -> None:
        if self._stream is not None:
            append_diagnostics(rec, self._stream)

    def snapshot(self, state: FluidState) -> None:
        if "snapshot" not in self._formats:
            return
        path = self.directory / f"snapshot_{self._snapshot_index:06d}.gnwv"
        write_snapshot(state, self._params, path)
        self._snapshot_index += 1

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "FileSinks":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
