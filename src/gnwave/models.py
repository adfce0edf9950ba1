"""Right-hand sides of the four model variants and the u ↔ v variable maps.

Velocity variables: the classical form evolves (ζ, u)::

    ∂t ζ + ∇·(h u) = 0
    (Id + μT[h, βb]) ∂t u + ∇ζ + ε(u·∇)u + με(Q[h,u] + Q_b[h,βb,u]) = 0

and the conjugate form evolves (ζ, v) with v = (Id + μT)u::

    ∂t ζ + ∇·(h u) = 0,      u = 𝔗[h, βb]⁻¹(h v)
    ∂t v + ε u^⊥ curl v + ∇ζ + (ε/2)∇|u|² = με ∇(R[h,u] + R_b[h,βb,u])

The weakly nonlinear variant freezes the dispersive operator at the rest
depth 1 − βb and drops the με terms, and the hydrostatic variant is the
μ = 0 limit; the three classical-variable tendencies share one body.  A
gn_v evaluation, and a gn_u or bp one at μ > 0, performs exactly one
elliptic solve; sv and the μ = 0 limits perform none.  Intermediate products
are dealiased.  The time stepper projects the velocity tendency of gn_u and
bp, a CG solution when μ > 0, onto the dealiased band; the gn_v and sv
tendencies lie in it already.

The tendencies take the ``(zeta, vel)`` arrays of a state together with
its water column, the :class:`DepthState` that :func:`make_depth` builds from
``zeta`` and the bottom, and return ``(dzeta, dvel)`` arrays on its grid.
:func:`make_depth` is the one place that forms h = 1 + εζ − βb.  The
tendencies do not know the variable kind, which the time stepper checks once
per run.
:class:`FluidState` is the typed state of the API edge: the input and output
of a run, snapshots, the ``u ↔ v`` maps and the diagnostics.
"""
from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import GridMismatchError, ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
# apply_R and apply_Rb stay importable from here although rhs_gn_v fuses them
# (``_pressure_terms``): the benchmark's layer trace wraps them by this path
from .operators import (
    BathymetryState,
    DepthState,
    EllipticSolveConfig,
    SolverSession,
    apply_Q,
    apply_Qb,
    apply_R,
    apply_Rb,
    apply_T,
    invert_frakT,
    _nonnegative,
    _pressure_terms,
)

__all__ = [
    "Formulation",
    "VariableKind",
    "ModelParams",
    "FluidState",
    "make_depth",
    "rhs_gn_u",
    "rhs_gn_v",
    "rhs_bp",
    "rhs_sv",
    "v_from_u",
    "u_from_v",
]


class Formulation(enum.Enum):
    GN_U = "gn_u"
    GN_V = "gn_v"
    BP = "bp"
    SV = "sv"


class VariableKind(enum.Enum):
    U_VARIABLE = "u"
    V_VARIABLE = "v"


def _member(cls: type[enum.Enum], value, what: str):
    """The member of ``cls`` with ``value``; anything else is refused."""
    try:
        return cls(value)
    except ValueError:
        accepted = ", ".join(repr(m.value) for m in cls)
        raise ValidationError(f"unknown {what} {value!r}, expected one of {accepted}") from None


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Scaling parameters and formulation selector."""

    epsilon: float = 1.0
    beta: float = 0.0
    mu: float = 1.0
    formulation: Formulation = Formulation.GN_V

    def __post_init__(self) -> None:
        for name in ("epsilon", "beta", "mu"):
            object.__setattr__(self, name, _nonnegative(name, getattr(self, name)))
        if not isinstance(self.formulation, Formulation):
            object.__setattr__(
                self, "formulation", _member(Formulation, self.formulation, "formulation")
            )
        if self.formulation is Formulation.SV and self.mu != 0.0:
            raise ValidationError("the hydrostatic variant requires mu = 0")

    @property
    def expected_kind(self) -> VariableKind:
        """The velocity the formulation evolves: v for gn_v, u otherwise."""
        if self.formulation is Formulation.GN_V:
            return VariableKind.V_VARIABLE
        return VariableKind.U_VARIABLE


@dataclasses.dataclass(frozen=True, eq=False)
class FluidState:
    """Surface elevation plus velocity-type variable at one instant."""

    zeta: ScalarField
    vel: VectorField
    kind: VariableKind
    time: float = 0.0

    def __post_init__(self) -> None:
        if not self.zeta.grid.compatible(self.vel.grid):
            raise GridMismatchError("zeta and velocity must live on one grid")
        if not isinstance(self.kind, VariableKind):
            object.__setattr__(self, "kind", _member(VariableKind, self.kind, "variable kind"))
        time = float(self.time)
        if not np.isfinite(time):
            raise ValidationError(f"time must be finite, got {time}")
        object.__setattr__(self, "time", time)

    @classmethod
    def rest(cls, grid: PeriodicGrid, kind: VariableKind = VariableKind.V_VARIABLE) -> "FluidState":
        return cls(ScalarField.zeros(grid), VectorField.zeros(grid), kind, 0.0)

    @property
    def grid(self) -> PeriodicGrid:
        return self.zeta.grid

    def max_abs(self) -> float:
        return max(
            float(np.max(np.abs(self.zeta.data))), float(np.max(np.abs(self.vel.data)))
        )


def make_depth(params: ModelParams, zeta: np.ndarray, bath: BathymetryState) -> DepthState:
    """The water column h = 1 + εζ − βb of the surface ``zeta`` over ``bath``.
    Over a flat bottom (β = 0) the term βb is zero and is not subtracted,
    which leaves every positive h the same to the bit."""
    if bath.beta != params.beta:
        raise ValidationError(
            f"bathymetry amplitude beta={bath.beta} disagrees with params.beta={params.beta}"
        )
    h = params.epsilon * zeta
    h += 1.0
    if params.beta != 0.0:
        h -= params.beta * bath.b.data
    return DepthState(bath, h)


def _require_kind(state: FluidState, kind: VariableKind, what: str) -> None:
    if state.kind is not kind:
        raise ValidationError(
            f"{what} expects the {kind.value}-variable state, "
            f"got the {state.kind.value}-variable state"
        )


def _advection(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """(u·∇)u, dealiased componentwise."""
    out = np.empty_like(u)
    for i in range(grid.dim):
        gi = grid.gradient(u[i])
        # einsum: one pass, faster than grid.contract at 128², same bits
        out[i] = np.einsum("j...,j...->...", u, gi)
    return grid.dealias(out)


def _classical_tendency(
    zeta: np.ndarray,
    vel: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    form: Formulation,
    cfg: EllipticSolveConfig | None,
    session: SolverSession | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The tendency of the sv, gn_u or bp ``form``: dζ = −P∇·(hu), which
    integrates to zero exactly, and du = −forcing for sv or μ = 0, else the
    solution of 𝔗[h₀] du = −P(h₀ · forcing).  The forcing is ∇ζ + ε(u·∇)u,
    plus με(Q + Q_b) for gn_u; h₀ is the stage's column h for gn_u and the
    bottom's rest column for bp."""
    grid = depth.grid
    dzeta = -grid.dealiased_divergence(depth.h * vel)

    forcing = grid.gradient(zeta) + params.epsilon * _advection(grid, vel)
    if form is Formulation.SV or params.mu == 0.0:
        return dzeta, -forcing

    mu_eps = params.mu * params.epsilon
    if form is Formulation.GN_U and mu_eps > 0.0:
        forcing = forcing + mu_eps * (apply_Q(depth, vel) + apply_Qb(depth, vel))
    h0 = depth.bath.rest_depth if form is Formulation.BP else depth
    v_rhs = -grid.dealias(h0.h * forcing)
    return dzeta, invert_frakT(h0, v_rhs, params.mu, cfg, session).u


def rhs_sv(
    zeta: np.ndarray, vel: np.ndarray, params: ModelParams, depth: DepthState
) -> tuple[np.ndarray, np.ndarray]:
    """Hydrostatic (μ = 0) right-hand side: dζ = −∇·(hu), du = −∇ζ − ε(u·∇)u."""
    return _classical_tendency(zeta, vel, params, depth, Formulation.SV, None, None)


def rhs_gn_u(
    zeta: np.ndarray,
    vel: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical-variable tendency; one elliptic solve for the velocity part.

    (Id + μT) du = −(∇ζ + ε(u·∇)u + με(Q + Q_b)) is realized through the
    composed operator: 𝔗 du = h · rhs.
    """
    return _classical_tendency(zeta, vel, params, depth, Formulation.GN_U, cfg, session)


def rhs_gn_v(
    zeta: np.ndarray,
    vel: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
    multiplier: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate-variable tendency. u = 𝔗⁻¹(hv) is solved once, then

    dζ = −∇·(hu),  dv = −∇ζ − ε (curl v) u^⊥ − (ε/2)∇|u|² + με ∇(R + R_b).

    Both are assembled as spectra and leave by one inverse transform; a
    real spectral ``multiplier`` (such as a smoothing symbol) is applied to
    both spectra before it.
    """
    grid = depth.grid
    u = invert_frakT(depth, grid.dealias(depth.h * vel), params.mu, cfg, session).u

    # −ζ, −(ε/2)|u|² and με(R + R_b) share one gradient; only the
    # nonlinear potentials and the vortical term are dealiased
    eps = params.epsilon
    potential = -(eps / 2.0) * grid.contract(u, u)
    if eps > 0.0 and params.mu > 0.0:
        potential += params.mu * eps * _pressure_terms(depth, u)
    if grid.dim == 1:
        # h·u, ζ and the potential in one forward call
        spec = grid.rfft(np.concatenate((depth.h * u, zeta[None], potential[None])))
        hu_spec, spec = spec[:1], spec[1:]
    else:
        # two calls: four planes at once would need a half spectrum of their own
        hu_spec = grid.rfft(depth.h * u)
        spec = grid.rfft(np.array((zeta, potential)))
    dzeta_spec = -grid.contract(grid.ik_dealiased, hu_spec)
    dv_spec = grid.ik * (grid.dealias_mask * spec[1] - spec[0])
    if grid.dim == 2 and eps > 0.0:
        dv_spec -= (eps * grid.dealias_mask) * grid.rfft(grid.curl(vel) * grid.perp(u))
    out_spec = np.concatenate((dzeta_spec[None], dv_spec))
    if multiplier is not None:
        out_spec *= multiplier
    out = grid.irfft(out_spec)
    return out[0], out[1:]


def rhs_bp(
    zeta: np.ndarray,
    vel: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weakly nonlinear tendency with the operator frozen at rest depth:

    dζ = −∇·(hu) (full depth), (Id + μT[1−βb, βb]) du = −(∇ζ + ε(u·∇)u).

    The rest depth is the bottom's cached ``rest_depth``, one object per
    bottom, so its powers are formed once and a session's warm starts stay
    effective.
    """
    return _classical_tendency(zeta, vel, params, depth, Formulation.BP, cfg, session)


def v_from_u(state: FluidState, params: ModelParams, bath: BathymetryState) -> FluidState:
    """Exact map v = (Id + μT[h, βb]) u."""
    _require_kind(state, VariableKind.U_VARIABLE, "v_from_u")
    depth = make_depth(params, state.zeta.data, bath)
    v = state.vel.data
    if params.mu > 0.0:
        v = v + params.mu * apply_T(depth, v)
    return FluidState(state.zeta, VectorField(state.grid, v), VariableKind.V_VARIABLE, state.time)


def u_from_v(
    state: FluidState,
    params: ModelParams,
    bath: BathymetryState,
    cfg: EllipticSolveConfig | None = None,
) -> FluidState:
    """Inverse map u = 𝔗[h, βb]⁻¹(h v) by elliptic solve.

    The product h·v is deliberately not dealiased here so that the round trip
    u → v → u closes to solver tolerance.
    """
    _require_kind(state, VariableKind.V_VARIABLE, "u_from_v")
    depth = make_depth(params, state.zeta.data, bath)
    u = invert_frakT(depth, depth.h * state.vel.data, params.mu, cfg).u
    return FluidState(state.zeta, VectorField(state.grid, u), VariableKind.U_VARIABLE, state.time)
