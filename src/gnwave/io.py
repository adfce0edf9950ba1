"""Configuration parsing, initial-state and bathymetry construction, and
snapshot/diagnostics persistence.

The run configuration is a line-oriented ``key = value`` text with sections
in brackets. Its language is one table, ``_TABLE``, in save order: each key
is declared once, with the setting of :class:`RunConfig` it owns, its reader
and writer, whether it is required, and the values of its section's ``type``
it applies to. :func:`load_config` and :func:`save_config` both iterate the
table, and a key not in it is unknown. What ties keys together (the spectral
band, a bump's center and width, the solitary wave's constraints, beta > 0
under a varying bottom) is checked in :func:`load_config`.

Snapshots are a small self-describing binary format (magic ``GNWV1``,
little-endian header, raw float64 payload) that reads back as the validated
:class:`ModelParams` and :class:`FluidState` it was written from; the stored
formulation decides whether the velocity is u or v. Diagnostics go to CSV with
17 significant digits so every double round-trips exactly. :class:`FileSinks`
replaces the CSV and the numbered snapshots a previous run left.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
import re
import struct
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO, get_type_hints

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import ParseError, SnapshotFormatError, ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import FluidState, Formulation, ModelParams, _require_kind
from .operators import BathymetryState, EllipticSolveConfig
from .regularization import _PROFILES, MollifierSpec
from .solitary import solitary_wave_state
from .timeloop import _SCHEMES, IntegrationConfig, _smoothing_refusal

__all__ = [
    "DIAGNOSTIC_COLUMNS",
    "SNAPSHOT_MAGIC",
    "BathymetrySpec",
    "FileSinks",
    "InitialSpec",
    "OutputSpec",
    "RunConfig",
    "append_diagnostics",
    "build_bathymetry",
    "build_initial_state",
    "load_config",
    "read_diagnostics",
    "read_snapshot",
    "read_snapshot_with_params",
    "save_config",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"GNWV1"
DIAGNOSTIC_COLUMNS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))

_INITIAL_KINDS = ("rest", "gaussian", "fourier_modes", "solitary_wave", "file")
_BATHYMETRY_KINDS = ("flat", "gaussian_bump", "fourier_modes", "file")
_OUTPUT_FORMATS = ("csv", "snapshot")

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
        if self.kind == "file" and not self.path:
            raise ValidationError("initial type 'file' requires a snapshot path")
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
        if self.kind == "file" and not self.path:
            raise ValidationError("bathymetry type 'file' requires a file path")
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

    def __post_init__(self) -> None:
        if self.initial.kind == "file" and _replaced_by_sinks(
            Path(self.initial.path).resolve(), Path(self.output.directory).resolve()
        ):
            raise ValidationError(
                f"initial snapshot {self.initial.path!r} is one of the files a run into "
                f"{self.output.directory!r} replaces; restart from a copy outside it"
            )


# ------------------------------------------------------------------- ini layer


def _parse_ini(text: str) -> dict[str, dict[str, str]]:
    """Parse ``key = value`` sections into a nested dict of raw strings
    (values stripped of surrounding whitespace)."""
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
        what = f"key {exc.option!r} in" if hasattr(exc, "option") else "section"
        raise ParseError(f"line {exc.lineno}: {what} [{exc.section}] repeated", exc.lineno) from exc
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


# ---------------------------------------------------------- readers, writers
# A reader turns a key's raw text into its value; a ValueError carries the
# violation text.


def _text(raw: str) -> str:
    return raw


def _words(raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


def _one_of(choices: Sequence[str]) -> Callable[[str], str]:
    def read(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"must be one of {tuple(choices)}, got {raw!r}")
        return raw

    return read


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _numbers(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ValueError(f"expected whitespace-separated numbers, got {raw!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError("entries must be finite")
    return values


def _count(low: int) -> Callable[[str], int]:
    def read(raw: str) -> int:
        if not (raw.isascii() and raw.isdigit() and int(raw) >= low):
            raise ValueError(f"must be an integer ≥ {low}, got {raw!r}")
        return int(raw)

    return read


def _integers(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok, 10) for tok in raw.split())
    except ValueError:
        raise ValueError(f"expected whitespace-separated integers, got {raw!r}") from None


def _path(raw: str) -> str:
    if not raw:
        raise ValueError("required key missing")
    return raw


def _entry_chunks(raw: str) -> list[str]:
    """The non-empty ``;``-separated entries of a mode key's text."""
    return [chunk.strip() for chunk in raw.split(";") if chunk.strip()]


def _mode_entries(raw: str) -> tuple[ModeEntry, ...]:
    """``m… amplitude phase`` groups separated by ``;``: the last two tokens
    of an entry are its amplitude and phase, the ones before its mode (their
    number is checked against the grid by :func:`load_config`)."""
    entries: list[ModeEntry] = []
    for chunk in _entry_chunks(raw):
        tokens = chunk.split()
        try:
            mode = tuple(int(tok, 10) for tok in tokens[:-2])
            amplitude, phase = (float(tok) for tok in tokens[-2:])
        except ValueError:
            raise ValueError(f"malformed entry {chunk!r}") from None
        if not (math.isfinite(amplitude) and math.isfinite(phase)):
            raise ValueError("amplitude and phase must be finite")
        entries.append((mode, amplitude, phase))
    if not entries:
        raise ValueError("no entries given")
    return tuple(entries)


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_floats(values: Iterable[float]) -> str:
    return " ".join(_fmt_float(v) for v in values)


def _fmt_words(values: Iterable) -> str:
    return " ".join(str(v) for v in values)


def _fmt_entries(entries: Iterable[ModeEntry]) -> str:
    return " ; ".join(
        " ".join([_fmt_words(mode), _fmt_float(amplitude), _fmt_float(phase)])
        for mode, amplitude, phase in entries
    )


# ---------------------------------------------------------------- the schema


@dataclasses.dataclass(frozen=True)
class _Key:
    """One config key: the setting it owns and how its text is read and
    written.

    ``field`` is the setting's dotted path from :class:`RunConfig`; its last
    step is a dict entry for the initial-state mode fields. ``kinds`` lists
    the values of the section's ``type`` key that the key applies to; an
    empty tuple means every value (``type`` itself, keys read before it, and
    sections without one).
    """

    section: str
    name: str
    field: str
    read: Callable[[str], object]
    write: Callable[[object], str] = _fmt_float
    required: bool = False
    kinds: tuple[str, ...] = ()


# In save order; load_config reads each section's keys in this order too.
_TABLE: tuple[_Key, ...] = (
    _Key("model", "epsilon", "params.epsilon", _number),
    _Key("model", "beta", "params.beta", _number),
    _Key("model", "mu", "params.mu", _number),
    _Key("model", "formulation", "params.formulation",
         _one_of([f.value for f in Formulation]), lambda f: f.value),
    _Key("grid", "shape", "grid.shape", _integers, _fmt_words, required=True),
    _Key("grid", "lengths", "grid.lengths", _numbers, _fmt_floats),
    _Key("integration", "dt", "integration.dt", _number, required=True),
    _Key("integration", "t_end", "integration.t_end", _number, required=True),
    _Key("integration", "scheme", "integration.scheme", _one_of(_SCHEMES), str),
    _Key("mollifier", "iota", "integration.mollifier.iota", _number),
    _Key("mollifier", "profile", "integration.mollifier.profile", _one_of(_PROFILES), str),
    _Key("elliptic", "rel_tolerance", "elliptic.rel_tolerance", _number),
    _Key("initial", "type", "initial.kind", _one_of(_INITIAL_KINDS), str),
    _Key("initial", "amplitude", "initial.amplitude", _number, required=True,
         kinds=("gaussian", "solitary_wave")),
    _Key("initial", "width", "initial.width", _number, required=True, kinds=("gaussian",)),
    _Key("initial", "center", "initial.center", _numbers, _fmt_floats, kinds=("gaussian",)),
    *(
        _Key("initial", name, f"initial.modes.{name}", _mode_entries, _fmt_entries,
             kinds=("fourier_modes",))
        for name in ("zeta", "velocity_x", "velocity_y")
    ),
    _Key("initial", "path", "initial.path", _path, str, required=True, kinds=("file",)),
    _Key("bathymetry", "type", "bathymetry.kind", _one_of(_BATHYMETRY_KINDS), str),
    _Key("bathymetry", "amplitude", "bathymetry.amplitude", _number, required=True,
         kinds=("gaussian_bump",)),
    _Key("bathymetry", "width", "bathymetry.width", _number, required=True,
         kinds=("gaussian_bump",)),
    _Key("bathymetry", "center", "bathymetry.center", _numbers, _fmt_floats,
         kinds=("gaussian_bump",)),
    _Key("bathymetry", "modes", "bathymetry.modes", _mode_entries, _fmt_entries,
         required=True, kinds=("fourier_modes",)),
    _Key("bathymetry", "path", "bathymetry.path", _path, str, required=True, kinds=("file",)),
    _Key("output", "directory", "output.directory", _text, str),
    _Key("output", "diag_stride", "integration.diag_stride", _count(1), str),
    _Key("output", "snapshot_stride", "integration.snapshot_stride", _count(0), str),
    _Key("output", "formats", "output.formats", _words, _fmt_words),
)
_SECTIONS = tuple(dict.fromkeys(key.section for key in _TABLE))


def _applies(key: _Key, section: str, kind: str | None) -> bool:
    """Whether ``key`` is read and written in ``section`` when its ``type``
    is ``kind``: None before ``type`` or without it."""
    return key.section == section and (not key.kinds or kind in key.kinds)


_ABSENT = object()


def _mid_domain(grid: PeriodicGrid) -> tuple[float, ...]:
    """The center a bump takes when its config gives none."""
    return tuple(0.5 * ell for ell in grid.lengths)


def _get(cfg: RunConfig, path: str) -> object:
    """The setting at ``path``; ``_ABSENT`` for a mode field not given."""
    value: object = cfg
    for step in path.split("."):
        value = value.get(step, _ABSENT) if isinstance(value, dict) else getattr(value, step)
    return value


# --------------------------------------------------------------- config load


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
    violations = [f"[{name}]: unknown section" for name in mapping if name not in _SECTIONS]
    unread = {name: dict(mapping.get(name, {})) for name in _SECTIONS}
    values: dict = {key.field.split(".")[0]: {} for key in _TABLE}  # settings read

    def error(section: str, key: str, reason: str) -> None:
        violations.append(f"[{section}] {key}: {reason}")

    def read(section: str) -> bool:
        """Read the section's keys into ``values``, along their field paths;
        False when a required key is missing or refused."""
        complete, kind = True, None
        for key in _TABLE:
            if not _applies(key, section, kind):
                continue
            raw = unread[section].pop(key.name, None)
            if raw is None and not key.required:
                continue
            try:
                if raw is None:
                    raise ValueError("required key missing")
                value = key.read(raw)
            except ValueError as exc:
                error(section, key.name, str(exc))
                complete = complete and not key.required
                continue
            *owners, attr = key.field.split(".")
            node = values
            for step in owners:
                node = node.setdefault(step, {})
            node[attr] = value
            if key.name == "type":
                kind = value
        return complete

    def build(section: str, cls: type, settings: dict):
        """``cls`` from the settings read, its own defaults for the rest; a
        refusal is recorded as a ``*`` violation and gives None."""
        try:
            return cls(**settings)
        except ValidationError as exc:
            error(section, "*", str(exc))
            return None

    # dependency order: the integration takes the mollifier and the strides
    # of [output]
    read("model")
    params = build("model", ModelParams, values["params"])
    grid: PeriodicGrid | None = None
    if read("grid"):
        shape = values["grid"]["shape"]
        values["grid"].setdefault("lengths", tuple(2.0 * math.pi for _ in shape))
        grid = build("grid", PeriodicGrid, values["grid"])
    read("mollifier")
    mollifier = build("mollifier", MollifierSpec, values["integration"].pop("mollifier", {}))
    if mollifier is not None and params is not None:
        if refusal := _smoothing_refusal(mollifier, params.formulation):
            error("mollifier", "iota", refusal)
    read("output")
    output = build("output", OutputSpec, values["output"])
    integration: IntegrationConfig | None = None
    if read("integration"):
        values["integration"]["mollifier"] = mollifier or MollifierSpec()
        integration = build("integration", IntegrationConfig, values["integration"])
    read("elliptic")
    elliptic = build("elliptic", EllipticSolveConfig, values["elliptic"])

    def check_bump(section: str) -> None:
        """Center arity (mid-domain by default) and width > 0 of a bump."""
        spec = values[section]
        center, width = spec.get("center"), spec.get("width")
        if grid is not None:
            if center is not None and len(center) != grid.dim:
                error(section, "center", f"needs {grid.dim} coordinate(s), got {len(center)}")
            spec.setdefault("center", _mid_domain(grid))
        if width is not None and width <= 0.0:
            error(section, "width", f"must be positive, got {width}")

    def check_modes(section: str, key: str, entries: tuple[ModeEntry, ...]) -> None:
        """Mode entries against the grid: one arity violation per key, else
        one per mode outside the band."""
        if key == "velocity_y" and grid.dim == 1:
            error(section, key, "only valid on two-dimensional grids")
            return
        for chunk in _entry_chunks(mapping[section][key]):
            if len(chunk.split()) != grid.dim + 2:
                arity = f"each entry needs {grid.dim} mode integer(s), an amplitude and a phase"
                error(section, key, f"{arity}, got {chunk!r}")
                return
        for mode, _amp, _phase in entries:
            if any(abs(m) > cut for m, cut in zip(mode, grid.band)):
                band = f"lies outside the retained spectral band (|m_i| <= {grid.band})"
                error(section, key, f"mode {mode} {band}")

    complete = read("initial")
    spec = values["initial"]
    kind = spec.get("kind", InitialSpec.kind)
    if kind == "gaussian":
        check_bump("initial")
    elif kind == "fourier_modes" and grid is not None:
        for key, entries in spec.get("modes", {}).items():
            check_modes("initial", key, entries)
    elif kind == "solitary_wave":
        amplitude = spec.get("amplitude")
        if amplitude is not None and amplitude <= 0.0:
            error("initial", "amplitude", f"must be positive, got {amplitude}")
        if grid is not None and grid.dim != 1:
            error("initial", "type", "solitary_wave requires a one-dimensional grid")
        if params is not None and (params.mu <= 0.0 or params.epsilon <= 0.0):
            error("initial", "type", "solitary_wave requires mu > 0 and epsilon > 0")
    initial = build("initial", InitialSpec, spec) if complete else None

    # a varying bottom needs beta > 0, reported ahead of the bottom's own keys
    kind = mapping.get("bathymetry", {}).get("type")
    if kind in _BATHYMETRY_KINDS and kind != "flat" and params is not None:
        if params.beta == 0.0:
            error("bathymetry", "type", "a varying bottom requires beta > 0, got beta = 0")
    complete = read("bathymetry")
    spec = values["bathymetry"]
    if spec.get("kind") == "gaussian_bump":
        check_bump("bathymetry")
    elif spec.get("kind") == "fourier_modes" and grid is not None and "modes" in spec:
        check_modes("bathymetry", "modes", spec["modes"])
    bathymetry = build("bathymetry", BathymetrySpec, spec) if complete else None

    for section in _SECTIONS:
        for key in unread[section]:
            error(section, key, "unknown key")
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


# --------------------------------------------------------------- config save


def save_config(cfg: RunConfig) -> str:
    """Serialize a :class:`RunConfig` to canonical config text.

    The output is normalized: fixed section and key order, defaults
    materialized, floats in shortest round-trip decimal form. For any text
    ``x`` accepted by :func:`load_config`,
    ``save_config(load_config(x))`` is a fixed point of the load/save pair.
    """
    lines: list[str] = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        kind = None
        for key in _TABLE:
            if not _applies(key, section, kind):
                continue
            value = _get(cfg, key.field)
            if key.name == "center" and not value:  # the empty center is mid-domain
                value = _mid_domain(cfg.grid)
            if value is not _ABSENT:
                lines.append(f"{key.name} = {key.write(value)}")
            if key.name == "type":
                kind = value
        lines.append("")
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
    center = center or _mid_domain(grid)
    out = np.ones(grid.shape)
    for axis in range(grid.dim):
        x = grid.axis_coords[axis]
        length = grid.lengths[axis]
        c = float(center[axis])
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
    stored_params, state = read_snapshot_with_params(spec.path)
    _require_snapshot_grid(state.grid, grid)
    if state.kind is not kind:
        raise ValidationError(
            f"snapshot {spec.path!r} stores the {state.kind.value}-variable, the "
            f"configured formulation needs the {kind.value}-variable"
        )
    stored = (stored_params.epsilon, stored_params.beta, stored_params.mu)
    wanted = (cfg.params.epsilon, cfg.params.beta, cfg.params.mu)
    if stored != wanted:
        raise ValidationError(
            f"snapshot {spec.path!r} was written with (epsilon, beta, mu) = "
            f"{stored}, the configuration says {wanted}"
        )
    return state


# ------------------------------------------------------------------ snapshots


def _header_format(dim: int) -> str:
    """struct layout of the GNWV1 header that follows the magic."""
    return f"<I{dim}I{dim}d3d8sd"


def write_snapshot(state: FluidState, params: ModelParams, path: str | Path) -> None:
    """Write one state to ``path`` in the GNWV1 binary layout.

    Layout: magic ``GNWV1``; little-endian header (dim as u32, per-axis
    point counts as u32, per-axis box lengths as f64, ε/β/μ as f64, the
    formulation name as 8 NUL-padded ASCII bytes, time as f64); payload of
    row-major float64 fields, surface elevation first, then the velocity
    components in axis order. A state whose variable kind is not the one the
    formulation evolves is refused: it would read back as the other kind.
    """
    _require_kind(state, params.expected_kind, f"a {params.formulation.value} snapshot")
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


def read_snapshot_with_params(path: str | Path) -> tuple[ModelParams, FluidState]:
    """A GNWV1 snapshot's model parameters and its state, from one read that
    validates the whole file: :class:`PeriodicGrid` and :class:`ModelParams`
    refuse a bad header, and the stored formulation decides the state's kind."""
    path = Path(path)
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
    try:
        grid = PeriodicGrid(values[1 : 1 + dim], values[1 + dim : 1 + 2 * dim])
        params = ModelParams(epsilon, beta, mu, formulation)
        if not math.isfinite(time):
            raise ValidationError(f"time must be finite, got {time}")
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
        ScalarField(grid, data[0]), VectorField(grid, data[1:]), params.expected_kind, time
    )
    return params, state


def _require_snapshot_grid(grid: PeriodicGrid, expected: PeriodicGrid) -> None:
    if not grid.compatible(expected):
        raise SnapshotFormatError(
            f"snapshot resolution {grid.shape} on box {grid.lengths} does not "
            f"match the expected grid {expected.shape} on {expected.lengths}"
        )


def read_snapshot(path: str | Path, expected_grid: PeriodicGrid | None = None) -> FluidState:
    """Read a GNWV1 snapshot back into a state (bit-exact round trip).

    ``expected_grid`` rejects cross-resolution reads. The variable kind is
    recovered from the stored formulation name.
    """
    _params, state = read_snapshot_with_params(path)
    if expected_grid is not None:
        _require_snapshot_grid(state.grid, expected_grid)
    return state


# ---------------------------------------------------------------- diagnostics


def _fmt_sig(value: float) -> str:
    return format(float(value), ".17g")


def append_diagnostics(record: DiagnosticsRecord, stream: TextIO) -> None:
    """Append one CSV row; :class:`FileSinks` writes the header row.

    Columns are :data:`DIAGNOSTIC_COLUMNS`; values carry 17 significant
    digits so re-parsing reproduces every double exactly (an integer count
    prints as itself).  Only writes, so any text stream serves, a pipe too.
    """
    row = (_fmt_sig(getattr(record, key)) for key in DIAGNOSTIC_COLUMNS)
    stream.write(",".join(row) + "\n")


def read_diagnostics(text: str) -> list[dict[str, float]]:
    """Parse diagnostics CSV text back into one dict per row."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or tuple(lines[0].split(",")) != DIAGNOSTIC_COLUMNS:
        raise ValidationError(
            f"diagnostics header must be {','.join(DIAGNOSTIC_COLUMNS)}"
        )
    types = get_type_hints(DiagnosticsRecord)  # a column parses as its field's type
    rows: list[dict[str, float]] = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(DIAGNOSTIC_COLUMNS):
            raise ValidationError(f"diagnostics row has {len(cells)} cells: {line!r}")
        rows.append({key: types[key](cell) for key, cell in zip(DIAGNOSTIC_COLUMNS, cells)})
    return rows


def _replaced_by_sinks(path: Path, directory: Path) -> bool:
    """Whether opening :class:`FileSinks` on ``directory`` removes ``path``."""
    artifact = re.fullmatch(r"diagnostics\.csv|snapshot_[0-9]{6,}\.gnwv", path.name)
    return path.parent == directory and artifact is not None


class FileSinks:
    """Persistence sinks for the time loop: diagnostics CSV plus numbered
    GNWV1 snapshot files under one directory.

    Which artifacts are produced follows ``formats``.  The CSV's header row
    is written when it opens, so an empty run still leaves a header-only
    CSV; each record appends one row (:func:`append_diagnostics`).  Sinks
    without a CSV have no ``record`` and sinks without snapshots no
    ``snapshot``, so a run takes no records or builds no snapshot states.
    One instance owns its files exclusively: opening removes the CSV and the
    numbered snapshots a previous run left there (:class:`RunConfig` refuses
    an initial snapshot among them), so what is left is this run's alone.
    """

    def __init__(
        self,
        directory: str | Path,
        params: ModelParams,
        formats: Sequence[str] = _OUTPUT_FORMATS,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for old in self.directory.iterdir():
            if _replaced_by_sinks(old, self.directory):
                old.unlink()
        self._params = params
        self._snapshot_index = 0
        self._stream: TextIO | None = None
        if "csv" in formats:
            self._stream = open(self.directory / "diagnostics.csv", "w", newline="")
            self._stream.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
        else:
            self.record = None
        if "snapshot" not in formats:
            self.snapshot = None

    def record(self, rec: DiagnosticsRecord) -> None:
        append_diagnostics(rec, self._stream)

    def snapshot(self, state: FluidState) -> None:
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
