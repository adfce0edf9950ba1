"""Explicit time integration with depth monitoring and diagnostic sampling.

The integrator is classical RK4 (or SSP-RK3) applied to the selected model
tendency, with one elliptic solve per stage.  The stepper tells its solver
session each stage's index, the step number, the tableau's offset c of the
stage (0, ½, ½, 1 for RK4; 0, 1, ½ for SSP-RK3) and dt, from which the
session builds the stage's warm start (:class:`~gnwave.operators.SolverSession`);
the stage time t + c·dt is formed only for the guards' messages.  CG's flat
inverses P̄ belong to the bottom, so the stage solves and the records, each
solved in a fresh session, share the few a run builds.

The dispersive operator has an order-zero inverse, so explicit stepping is
not stiffness-limited; a CFL advisory based on the gravity-wave speed
√(max h) with safety factor 0.5 is emitted as a warning only.

Stages and steps carry the ``(zeta, vel)`` arrays of the state; a run
checks the variable kind of its initial state once, and builds a
:class:`~gnwave.models.FluidState` only to emit a record or snapshot, to
return, or to attach a failure report.  Every step result is projected onto
the dealiased band, and so is a state entering the first step.  Stage states
need no projection of their own: the gn_v and sv tendencies lie in the band
already (to round-off), and the velocity tendency of gn_u and bp, a CG
solution when μ > 0, is projected before use, so every stage stays in the
band.  Each state is checked once: every step result, the input of every
stage after the first (the first stage starts from the checked step result)
and the initial state before step 1.  Any field magnitude beyond 1e8, or a
non-finite value in either array, terminates the run as a blow-up.  Each
stage then builds its water column once, with
:func:`~gnwave.models.make_depth`; a stage whose minimum depth falls to half
the floor, the minimum depth of the initial state, aborts the step, and the
tendency takes the same depth.

Determinism: all arithmetic is fixed-order; two runs from identical inputs
produce bit-identical states, records and snapshots.  Wall-clock time in the
report is the only nondeterministic field.
"""
from __future__ import annotations

import dataclasses
import math
import time
import warnings

import numpy as np

from .diagnostics import DEFAULT_ORDER, DiagnosticsRecord, collect_record
from .errors import (
    BlowUpError,
    CoercivityViolationError,
    NonConvergenceError,
    ValidationError,
)
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import (
    FluidState,
    Formulation,
    ModelParams,
    VariableKind,
    _require_kind,
    make_depth,
    rhs_bp,
    rhs_gn_u,
    rhs_sv,
    v_from_u,
)
from .operators import BathymetryState, DepthState, EllipticSolveConfig, SolverSession
from .regularization import MollifierSpec, rhs_gn_v_mollified

__all__ = [
    "BLOWUP_LIMIT",
    "CFL_SAFETY",
    "CollectingSinks",
    "IntegrationConfig",
    "RunReport",
    "cfl_time_step",
    "run",
    "step_schedule",
]

BLOWUP_LIMIT = 1e8
CFL_SAFETY = 0.5
_SCHEMES = ("rk4", "rk3_ssp")


def _is_count(n, low: int) -> bool:
    """True for a Python or numpy integer ≥ ``low``; a bool is no count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= low


@dataclasses.dataclass(frozen=True)
class IntegrationConfig:
    """Time-stepping parameters.

    Attributes
    ----------
    dt : float
        Fixed step size, > 0.
    t_end : float
        Absolute target time; integration stops when the state reaches it
        (a shorter final step is taken if needed).
    scheme : str
        ``rk4`` (default) or ``rk3_ssp``.
    mollifier : MollifierSpec
        Spectral smoothing applied inside the tendency; identity by default.
        Smoothing requires the conjugate-variable formulation.
    diag_stride : int
        Emit a diagnostics record every this many steps (≥ 1).
    snapshot_stride : int
        Emit a state snapshot every this many steps; 0 disables snapshots.
    """

    dt: float
    t_end: float
    scheme: str = "rk4"
    mollifier: MollifierSpec = dataclasses.field(default_factory=MollifierSpec)
    diag_stride: int = 1
    snapshot_stride: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValidationError(f"t_end must be finite, got {self.t_end}")
        if self.scheme not in _SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if not _is_count(self.diag_stride, 1):
            raise ValidationError(f"diag_stride must be an integer ≥ 1, got {self.diag_stride}")
        if not _is_count(self.snapshot_stride, 0):
            raise ValidationError(
                f"snapshot_stride must be an integer ≥ 0, got {self.snapshot_stride}"
            )


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Outcome of one integration run.  CG iterations are counted apart for
    the stage solves of the steps, in the run's one solver session, and for
    the emitted records, each solved in a fresh session of its own (the sum
    of their ``cg_iterations``)."""

    final_state: FluidState
    wall_time: float
    stage_iterations: int
    record_iterations: int
    termination: str
    steps: int
    failure_time: float | None = None

    @property
    def total_elliptic_iterations(self) -> int:
        return self.stage_iterations + self.record_iterations


class CollectingSinks:
    """In-memory sinks: keeps every record and snapshot in lists."""

    def __init__(self) -> None:
        self.records: list[DiagnosticsRecord] = []
        self.snapshots: list[FluidState] = []

    def record(self, rec: DiagnosticsRecord) -> None:
        self.records.append(rec)

    def snapshot(self, state: FluidState) -> None:
        self.snapshots.append(state)


def cfl_time_step(state: FluidState, params: ModelParams, bath: BathymetryState) -> float:
    """Advisory step bound: 0.5·(min spacing)/(√(max h)·(1 + ε·max|vel|)).

    A state whose depth is not positive everywhere has no wave speed and
    raises :class:`~gnwave.errors.CoercivityViolationError`.
    """
    return _advisory_step(state, params, make_depth(params, state.zeta.data, bath))


def _smoothing_refusal(spec: MollifierSpec, formulation: Formulation) -> str | None:
    """Why ``spec`` is refused: smoothing (ι > 0) needs the conjugate variable."""
    if spec.iota > 0.0 and formulation is not Formulation.GN_V:
        return (
            "spectral smoothing is defined for the conjugate-variable "
            f"formulation only, got {formulation.value}"
        )
    return None


def _advisory_step(state: FluidState, params: ModelParams, depth: DepthState) -> float:
    """:func:`cfl_time_step` of ``state`` over its water column ``depth``."""
    speed = math.sqrt(float(np.max(depth.h))) * (1.0 + params.epsilon * state.max_abs())
    return CFL_SAFETY * min(state.grid.spacings) / speed


class _Stepper:
    """Binds the model tendency, the stage guards and a solver session to the
    state a run starts from, which must be of the formulation's kind.

    The depth floor is the minimum of ``initial_depth``, the water column of
    the initial state: the bound h_min > 0 that keeps 𝔗 coercive.
    """

    def __init__(
        self,
        initial: FluidState,
        params: ModelParams,
        bath: BathymetryState,
        icfg: IntegrationConfig,
        cfg: EllipticSolveConfig | None,
        session: SolverSession,
        initial_depth: DepthState,
    ) -> None:
        _require_kind(initial, params.expected_kind, f"the {params.formulation.value} formulation")
        if refusal := _smoothing_refusal(icfg.mollifier, params.formulation):
            raise ValidationError(refusal)
        self.params = params
        self.bath = bath
        self.grid = bath.grid
        self.scheme = icfg.scheme
        self.session = session
        self.floor = initial_depth.h_min
        form = params.formulation
        if form is Formulation.GN_V:
            phi = None if icfg.mollifier.is_identity else icfg.mollifier.multiplier(self.grid)

            def tendency(zeta: np.ndarray, vel: np.ndarray, depth: DepthState):
                return rhs_gn_v_mollified(zeta, vel, params, depth, phi, cfg, session)

        elif form is Formulation.SV:

            def tendency(zeta: np.ndarray, vel: np.ndarray, depth: DepthState):
                return rhs_sv(zeta, vel, params, depth)

        else:
            # gn_u and bp: their velocity tendency, a CG solution when μ > 0,
            # is projected; the name is looked up per call, where the
            # benchmark's layer trace wraps it
            bp = form is Formulation.BP

            def tendency(zeta: np.ndarray, vel: np.ndarray, depth: DepthState):
                dz, dv = (rhs_bp if bp else rhs_gn_u)(zeta, vel, params, depth, cfg, session)
                return dz, self.grid.dealias(dv)

        self._tendency = tendency

    def check_fields(self, zeta: np.ndarray, vel: np.ndarray, t: float) -> None:
        """Raise :class:`~gnwave.errors.BlowUpError` when a magnitude in
        either array exceeds :data:`BLOWUP_LIMIT` or is not finite.  A peak
        holds NaN when its array does, and ``not peak <= limit`` refuses it;
        Python's ``max`` of a finite peak and NaN would keep the finite one."""
        peak_z, peak_v = float(np.abs(zeta).max()), float(np.abs(vel).max())
        if not (peak_z <= BLOWUP_LIMIT and peak_v <= BLOWUP_LIMIT):
            peak = float(np.maximum(peak_z, peak_v))
            raise BlowUpError(
                f"field magnitude {peak:.3e} at t = {t:.6g} exceeds {BLOWUP_LIMIT:.0e}",
                time=t,
                norm=peak,
            )

    def rhs(
        self, zeta: np.ndarray, vel: np.ndarray, stage: tuple[int, int, float, float], t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tendency at a stage at time ``t``; ``stage`` is (index, step,
        offset, dt), the session's :attr:`~gnwave.operators.SolverSession.stage`.
        Checks the input of every stage but the first and guards the stage's
        depth, as the module docstring says."""
        if stage[0]:
            self.check_fields(zeta, vel, t)
        depth = make_depth(self.params, zeta, self.bath)
        h_min = depth.h_min
        if h_min <= 0.5 * self.floor:
            raise CoercivityViolationError(
                f"stage depth {h_min:.6g} at t = {t:.6g} fell to half the "
                f"floor {self.floor:.6g}",
                min_depth=h_min,
            )
        self.session.stage = stage
        return self._tendency(zeta, vel, depth)

    def advance(
        self, z: np.ndarray, v: np.ndarray, step: int, t: float, dt: float, t_next: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step number ``step``, of size ``dt``, from the in-band ``(z, v)`` at
        ``t``, ending at ``t_next``."""

        def rhs(index: int, zs: np.ndarray, vs: np.ndarray, offset: float):
            return self.rhs(zs, vs, (index, step, offset, dt), t + offset * dt)

        if self.scheme == "rk4":
            k1z, k1v = rhs(0, z, v, 0.0)
            k2z, k2v = rhs(1, z + 0.5 * dt * k1z, v + 0.5 * dt * k1v, 0.5)
            k3z, k3v = rhs(2, z + 0.5 * dt * k2z, v + 0.5 * dt * k2v, 0.5)
            k4z, k4v = rhs(3, z + dt * k3z, v + dt * k3v, 1.0)
            nz = z + (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            nv = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        else:
            k1z, k1v = rhs(0, z, v, 0.0)
            z1, v1 = z + dt * k1z, v + dt * k1v
            k2z, k2v = rhs(1, z1, v1, 1.0)
            z2 = 0.75 * z + 0.25 * (z1 + dt * k2z)
            v2 = 0.75 * v + 0.25 * (v1 + dt * k2v)
            k3z, k3v = rhs(2, z2, v2, 0.5)
            nz = z / 3.0 + (2.0 / 3.0) * (z2 + dt * k3z)
            nv = v / 3.0 + (2.0 / 3.0) * (v2 + dt * k3v)
        nz, nv = _dealias_pair(self.grid, nz, nv)
        self.check_fields(nz, nv, t_next)
        return nz, nv


def _dealias_pair(
    grid: PeriodicGrid, z: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project ``(z, v)`` onto the dealiased band in one stacked transform pair."""
    both = grid.dealias(np.concatenate((z[None], v)))
    return both[0], both[1:]


def step_schedule(icfg: IntegrationConfig, t0: float) -> list[tuple[float, float]]:
    """The ``(dt, t_next)`` of each step a run from ``t0`` takes: the full
    steps, then a shorter final one unless the span is a whole number of
    steps up to round-off.  A span of more steps than a float counts is refused."""
    span = icfg.t_end - t0
    count = span / icfg.dt * (1.0 + 1e-12)
    if not math.isfinite(count):
        raise ValidationError(f"t_end - t0 = {span!r} holds no finite count of dt = {icfg.dt!r}")
    n_full = max(0, int(math.floor(count)))
    steps = [(icfg.dt, t0 + k * icfg.dt) for k in range(1, n_full + 1)]
    remainder = span - n_full * icfg.dt
    if remainder > 1e-9 * icfg.dt:
        steps.append((remainder, icfg.t_end))
    return steps


_TERMINATIONS = {
    CoercivityViolationError: "coercivity_violation",
    NonConvergenceError: "non_convergence",
    BlowUpError: "blow_up",
}


def run(
    initial: FluidState,
    params: ModelParams,
    bath: BathymetryState,
    icfg: IntegrationConfig,
    cfg: EllipticSolveConfig | None = None,
    sinks=None,
    diag_order: int = DEFAULT_ORDER,
) -> RunReport:
    """Integrate from the initial state to icfg.t_end.

    Diagnostics records (and snapshots, when enabled) are emitted for the
    initial state, then after every configured stride, then for the final
    state.  Step failures propagate as exceptions carrying a ``report``
    attribute with the last accepted state and the failure time.
    """
    t_start = time.perf_counter()
    session = SolverSession()
    # one water column of the initial state serves the floor and the advisory
    initial_depth = make_depth(params, initial.zeta.data, bath)
    stepper = _Stepper(initial, params, bath, icfg, cfg, session, initial_depth)

    advisory = _advisory_step(initial, params, initial_depth)
    if icfg.dt > advisory:
        warnings.warn(
            f"dt = {icfg.dt:.4g} exceeds the advisory bound {advisory:.4g} "
            "(0.5·spacing/wave speed); the run continues",
            stacklevel=2,
        )

    emit_record = getattr(sinks, "record", None)
    emit_snapshot = getattr(sinks, "snapshot", None)

    # the loop carries the in-band arrays (z, v) at time t; ``state`` wraps
    # them once a sink, the report or a failure needs it
    grid = bath.grid
    z, v = _dealias_pair(grid, initial.zeta.data, initial.vel.data)
    t = initial.time
    state: FluidState | None = initial

    def accepted() -> FluidState:
        nonlocal state
        if state is None:
            state = FluidState(ScalarField(grid, z), VectorField(grid, v), initial.kind, t)
        return state

    def emit(want_record: bool, want_snapshot: bool) -> None:
        nonlocal record_iterations
        if want_record and emit_record is not None:
            v_state = accepted()
            if v_state.kind is not VariableKind.V_VARIABLE:
                v_state = v_from_u(v_state, params, bath)
            rec = collect_record(v_state, params, bath, diag_order, cfg)
            record_iterations += rec.cg_iterations
            emit_record(rec)
        if want_snapshot and emit_snapshot is not None:
            emit_snapshot(accepted())

    steps = step_schedule(icfg, initial.time)
    steps_done = record_iterations = 0
    termination, failure_time, failure = "completed", None, None
    emit(True, icfg.snapshot_stride > 0)
    try:
        if steps:
            # each step checks the state it ends with, so the initial state
            # is checked once, before it enters step 1
            stepper.check_fields(z, v, t)
        for k, (dt, t_next) in enumerate(steps, start=1):
            z, v = stepper.advance(z, v, k, t, dt, t_next)
            t, state = t_next, None
            steps_done = k
            last = k == len(steps)
            emit(
                k % icfg.diag_stride == 0 or last,
                icfg.snapshot_stride > 0 and (k % icfg.snapshot_stride == 0 or last),
            )
    except tuple(_TERMINATIONS) as exc:
        termination = _TERMINATIONS[type(exc)]
        failure_time = getattr(exc, "time", None)
        if failure_time is None:
            failure_time = t
        failure = exc

    report = RunReport(
        final_state=accepted(),
        wall_time=time.perf_counter() - t_start,
        stage_iterations=session.total_iterations,
        record_iterations=record_iterations,
        termination=termination,
        steps=steps_done,
        failure_time=failure_time,
    )
    if failure is not None:
        failure.report = report
        raise failure
    return report

