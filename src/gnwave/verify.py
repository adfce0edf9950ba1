"""Executable verification studies for the solver's structural claims.

Four families of checks, each reduced to numbers with pass/fail semantics:

* identity residuals under grid refinement (operator commutation identity,
  agreement of the two tendency formulations),
* the Hamiltonian skew structure (finite-difference variational derivatives
  against the assembled tendency),
* linear dispersion measurement against the analytic relation
  ω² = k²/(1 + μk²/3),
* self-convergence studies in the time step and in resolution,
* propagation fidelity against the traveling-wave profile that
  :mod:`gnwave.solitary` builds independently in closed form.

Every random field is band-limited and generated from an explicit seed, so
each study is reproducible from its arguments alone.  Reports serialize to
human-readable text and to CSV.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import (
    FluidState,
    ModelParams,
    VariableKind,
    _require_kind,
    make_depth,
    rhs_gn_u,
    rhs_gn_v,
    v_from_u,
)
from .operators import (
    BathymetryState,
    DepthState,
    EllipticSolveConfig,
    apply_Q,
    apply_Qb,
    apply_T,
    dh_frakT,
    good_unknown_w,
    invert_frakT,
)
from .diagnostics import hamiltonian_gn
from .timeloop import CollectingSinks, IntegrationConfig, RunReport, cfl_time_step, run

__all__ = [
    "ResidualReport",
    "DispersionRow",
    "ConvergenceProblem",
    "band_limited_scalar",
    "band_limited_vector",
    "restrict_to_grid",
    "check_equivalence_identity",
    "check_rhs_equivalence",
    "check_variational_structure",
    "dispersion_study",
    "dt_convergence",
    "resolution_convergence",
    "check_resolution_study",
    "aligned_profile_gap",
    "reports_as_text",
    "reports_as_csv",
    "dispersion_as_text",
    "dispersion_as_csv",
]

ABSOLUTE_FLOOR = 1e-9
_MIN_DECAY = 100.0
_FACTOR_SLACK = 0.9
# Elliptic solve of the oracles: tight enough that solver error stays far
# below the residuals they report.
ORACLE_SOLVE = EllipticSolveConfig(rel_tolerance=1e-13)


def _super_algebraic(residuals: Sequence[float]) -> bool:
    """Accelerating decay with ≥ 100× total drop, or already at the floor."""
    r = np.asarray(residuals, dtype=float)
    if r[-1] <= ABSOLUTE_FLOOR:
        return True
    if r.size < 2 or np.any(np.diff(r) >= 0.0):
        return False
    if r[0] / r[-1] < _MIN_DECAY:
        return False
    factors = r[:-1] / r[1:]
    return all(factors[i + 1] >= _FACTOR_SLACK * factors[i] for i in range(factors.size - 1))


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    """Residual norms of one identity across a refinement ladder.

    ``decay_rate`` is the fitted slope of log2(residual) against
    log2(resolution): positive values are orders of decrease per doubling.
    ``passed`` is true when the decay is super-algebraic (strictly falling,
    total drop ≥ 100×, per-doubling factors non-decreasing up to 10% slack)
    or the last residual sits at or below the absolute floor 1e−9.
    """

    name: str
    resolutions: tuple[int, ...]
    residuals: tuple[float, ...]
    decay_rate: float
    passed: bool

    def __post_init__(self) -> None:
        if len(self.resolutions) != len(self.residuals):
            raise ValidationError(
                f"report {self.name!r}: {len(self.resolutions)} resolutions "
                f"but {len(self.residuals)} residuals"
            )
        if not self.resolutions:
            raise ValidationError(f"report {self.name!r} is empty")

    @classmethod
    def from_residuals(
        cls, name: str, resolutions: Sequence[int], residuals: Sequence[float]
    ) -> "ResidualReport":
        resolutions = tuple(int(n) for n in resolutions)
        residuals = tuple(float(r) for r in residuals)
        if len(resolutions) >= 2:
            logs = np.log2(np.maximum(residuals, 1e-300))
            rate = -float(np.polyfit(np.log2(resolutions), logs, 1)[0])
        else:
            rate = 0.0
        return cls(name, resolutions, residuals, rate, _super_algebraic(residuals))

    def as_text(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'} "
                 f"(decay rate {self.decay_rate:.2f} per doubling)"]
        for n, r in zip(self.resolutions, self.residuals):
            lines.append(f"  resolution {n:>6d}: residual {r:.6e}")
        return "\n".join(lines)


def reports_as_text(reports: Sequence[ResidualReport]) -> str:
    body = "\n".join(rep.as_text() for rep in reports)
    verdict = "ALL PASS" if all(rep.passed for rep in reports) else "FAILURES PRESENT"
    return f"{body}\n{verdict}\n"


def reports_as_csv(reports: Sequence[ResidualReport]) -> str:
    lines = ["name,resolution,residual,decay_rate,passed"]
    for rep in reports:
        for n, r in zip(rep.resolutions, rep.residuals):
            lines.append(f"{rep.name},{n},{r:.17g},{rep.decay_rate:.17g},{int(rep.passed)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded band-limited fields and cross-grid restriction
# ---------------------------------------------------------------------------


def _mode_iter(maxima: tuple[int, ...]):
    """One representative per ± pair of nonzero modes with |m_i| ≤ maxima[i]."""
    if len(maxima) == 1:
        for m in range(1, maxima[0] + 1):
            yield (m,)
        return
    for mx in range(0, maxima[0] + 1):
        start = 1 if mx == 0 else -maxima[1]
        for my in range(start, maxima[1] + 1):
            yield (mx, my)


def _phase(grid: PeriodicGrid, mode: tuple[int, ...]) -> np.ndarray:
    """The phase 2π m·x/L of one mode on the grid."""
    return sum(
        2.0 * np.pi * m * x / ell for m, x, ell in zip(mode, grid.coords, grid.lengths)
    )


def band_limited_scalar(
    grid: PeriodicGrid, rng: np.random.Generator, max_mode: int, amplitude: float
) -> np.ndarray:
    """Zero-mean random trigonometric polynomial with modes |m_i| ≤ max_mode.

    The coefficient draws and the normalization depend only on the seed and
    max_mode, not on the grid size, so the same generator state yields the
    same continuum field at every resolution.  The coefficient-sum bound
    guarantees max|f| ≤ amplitude pointwise.
    """
    out = np.zeros(grid.shape)
    bound = 0.0
    for mode in _mode_iter((max_mode,) * grid.dim):
        a, b = rng.normal(size=2)
        bound += math.hypot(a, b)
        phase = _phase(grid, mode)
        out += a * np.cos(phase) + b * np.sin(phase)
    return amplitude * out / max(bound, 1e-300)


def band_limited_vector(
    grid: PeriodicGrid, rng: np.random.Generator, max_mode: int, amplitude: float
) -> np.ndarray:
    return np.stack(
        [band_limited_scalar(grid, rng, max_mode, amplitude) for _ in range(grid.dim)]
    )


def restrict_to_grid(data: np.ndarray, fine: PeriodicGrid, coarse: PeriodicGrid) -> np.ndarray:
    """Spectral restriction of scalar or stacked-vector data between grids.

    Copies the Fourier coefficients the coarse grid can represent (coarse
    Nyquist rows dropped); exact for band-limited fields. A target grid finer
    than the source on any axis is refused.
    """
    if fine.lengths != coarse.lengths:
        raise ValidationError("restriction requires identical box lengths")
    if any(n_c > n_f for n_f, n_c in zip(fine.shape, coarse.shape)):
        raise ValidationError(
            f"cannot restrict from grid {fine.shape} to the finer grid {coarse.shape}"
        )
    spec = fine.fft(data)
    out_spec = np.zeros(data.shape[: data.ndim - fine.dim] + coarse.spectral_shape, complex)
    sel_src, sel_dst = [], []
    for axis, (n_f, n_c) in enumerate(zip(fine.shape, coarse.shape)):
        half = (n_c - 1) // 2
        modes = np.arange(0, half + 1)
        if axis < fine.dim - 1:  # the last axis of the real layout has no negative modes
            modes = np.concatenate([modes, np.arange(-half, 0)])
        sel_src.append(np.mod(modes, n_f))
        sel_dst.append(np.mod(modes, n_c))
    out_spec[(Ellipsis,) + np.ix_(*sel_dst)] = spec[(Ellipsis,) + np.ix_(*sel_src)]
    return coarse.ifft(out_spec)


# ---------------------------------------------------------------------------
# Identity checks under refinement
# ---------------------------------------------------------------------------


def _require_square(study: str, owner: str, grid: PeriodicGrid) -> None:
    """Ladders run square grids: on a grid whose axes differ, a rung would
    drop modes of the longer axis or study another grid."""
    if len(set(grid.shape)) > 1:
        raise ValidationError(
            f"{study} runs square grids, but the {owner} "
            f"shape = {' '.join(map(str, grid.shape))} has unequal axes"
        )


def _ladder(
    zeta: ScalarField, vel: VectorField, bath: BathymetryState, resolutions: Sequence[int]
):
    """``(grid, ζ, vel, bath)`` per rung of a refinement ladder: the inputs of
    the finest grid, restricted spectrally to each size."""
    fine = zeta.grid
    _require_square("an identity ladder", "state's", fine)
    arrays = (zeta.data, vel.data, bath.b.data)
    for n in resolutions:
        g = PeriodicGrid((int(n),) * fine.dim, fine.lengths)
        if g.shape == fine.shape:
            z_g, v_g, b_g = arrays
        else:
            z_g, v_g, b_g = (restrict_to_grid(a, fine, g) for a in arrays)
        yield g, z_g, v_g, BathymetryState(ScalarField(g, b_g), bath.beta)


def check_equivalence_identity(
    zeta: ScalarField,
    u: VectorField,
    params: ModelParams,
    bath: BathymetryState,
    grids: Sequence[int] = (32, 64, 128),
) -> ResidualReport:
    """Residual of the commutation identity behind formulation equivalence.

    With the depth tendency f = −ε∇·(hu) substituted for ∂t(εζ), the claim
    is that the operator commutator plus rotation and gradient corrections
    reproduces the quadratic tendency terms::

        (d_f T)u + ε (curl Tu) u^⊥ + ε ∇(u·Tu − ½w²) = ε (Q + Q_b) u.

    Inputs live on the finest grid and are restricted spectrally to each
    coarser size, so the residual isolates unresolved-product truncation,
    which must fall super-algebraically under refinement.
    """
    eps = params.epsilon
    residuals = []
    for g, z_g, u_g, bath_g in _ladder(zeta, u, bath, grids):
        depth = make_depth(params, z_g, bath_g)
        h = depth.h
        Tu = apply_T(depth, u_g)
        f = -eps * g.dealias(g.divergence(g.dealias(h * u_g)))
        comm = (dh_frakT(depth, f, u_g, 1.0) - g.dealias(f * u_g) - g.dealias(f * Tu)) / h
        w = good_unknown_w(depth, u_g)
        u_dot_Tu = g.dealias(g.contract(u_g, Tu))
        lhs = comm + eps * g.gradient(g.dealias(u_dot_Tu - 0.5 * g.dealias(w * w)))
        if g.dim == 2:
            lhs = lhs + eps * g.dealias(g.curl(Tu) * g.perp(u_g))
        rhs = eps * (apply_Q(depth, u_g) + apply_Qb(depth, u_g))
        residuals.append(g.norm_l2(lhs - rhs))
    return ResidualReport.from_residuals("equivalence_identity", grids, residuals)


def check_rhs_equivalence(
    zeta: ScalarField,
    u: VectorField,
    params: ModelParams,
    bath: BathymetryState,
    grids: Sequence[int] = (32, 64, 128),
) -> ResidualReport:
    """Gap between the classical tendency and the mapped conjugate tendency.

    du/dt is computed once directly and once by pushing the conjugate-state
    tendency through the time derivative of the relation hv = 𝔗u, using the
    depth-direction derivative of 𝔗 for the moving-coefficient part.
    """
    eps = params.epsilon
    residuals = []
    for g, z_g, u_g, bath_g in _ladder(zeta, u, bath, grids):
        su = FluidState(ScalarField(g, z_g), VectorField(g, u_g), VariableKind.U_VARIABLE)
        sv = v_from_u(su, params, bath_g)
        depth = make_depth(params, z_g, bath_g)
        dz_u, du = rhs_gn_u(z_g, u_g, params, depth, ORACLE_SOLVE)
        dz_v, dv = rhs_gn_v(z_g, sv.vel.data, params, depth, ORACLE_SOLVE)
        f = eps * dz_v
        mapped_rhs = depth.h * dv + f * sv.vel.data - dh_frakT(depth, f, u_g, params.mu)
        du_mapped = invert_frakT(depth, mapped_rhs, params.mu, ORACLE_SOLVE).u
        gap_u = g.norm_l2(du - du_mapped)
        gap_z = g.norm_l2(dz_u - dz_v)
        residuals.append(math.hypot(gap_u, gap_z))
    return ResidualReport.from_residuals("rhs_equivalence", grids, residuals)


# ---------------------------------------------------------------------------
# Hamiltonian variational structure
# ---------------------------------------------------------------------------

FD_DELTA = 1e-5


def _variational_gradients(
    zeta: np.ndarray,
    v: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    cfg: EllipticSolveConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Claimed variational derivatives (δ_ζH, δ_vH) of the energy functional."""
    uu, _, _ = invert_frakT(depth, depth.h * v, params.mu, cfg)
    w = good_unknown_w(depth, uu)
    grad_v = depth.h * uu
    contract = depth.grid.contract
    grad_z = (
        zeta
        + params.epsilon * contract(uu, v)
        - 0.5 * params.epsilon * contract(uu, uu)
        - 0.5 * params.epsilon * params.mu * w * w
    )
    return grad_z, grad_v


def skew_assembled_rhs(
    state: FluidState,
    params: ModelParams,
    bath: BathymetryState,
    cfg: EllipticSolveConfig = ORACLE_SOLVE,
) -> tuple[np.ndarray, np.ndarray]:
    """Tendency assembled from the variational derivatives and q = curl v/h.

    ∂tζ = −∇·(δ_vH), ∂tv = −∇(δ_ζH) − ε q (δ_vH)^⊥; the rotation term is
    absent on one-dimensional grids where curl vanishes identically.
    """
    _require_kind(state, VariableKind.V_VARIABLE, "skew_assembled_rhs")
    depth = make_depth(params, state.zeta.data, bath)
    grad_z, grad_v = _variational_gradients(
        state.zeta.data, state.vel.data, params, depth, cfg
    )
    return _skew_from_gradients(state.vel.data, params, depth, grad_z, grad_v)


def fd_pairing_mismatch(
    zeta: ScalarField,
    v: VectorField,
    params: ModelParams,
    bath: BathymetryState,
    cfg: EllipticSolveConfig,
    rng: np.random.Generator,
    delta: float = FD_DELTA,
) -> tuple[float, float]:
    """Central-difference derivative of H along one random direction, a
    band-limited field with modes |m_i| ≤ 3.

    Returns (|fd − ⟨gradients, direction⟩|, |⟨gradients, direction⟩|).
    """
    g = zeta.grid
    sz = band_limited_scalar(g, rng, 3, 1.0)
    sv = band_limited_vector(g, rng, 3, 1.0)
    depth = make_depth(params, zeta.data, bath)
    grad_z, grad_v = _variational_gradients(zeta.data, v.data, params, depth, cfg)
    predicted = g.inner(grad_z, sz) + g.inner(grad_v, sv)

    def ham(step: float) -> float:
        z = zeta.data + step * sz
        return hamiltonian_gn(
            z, v.data + step * sv, params, make_depth(params, z, bath), cfg
        )

    fd = (ham(delta) - ham(-delta)) / (2.0 * delta)
    return abs(fd - predicted), abs(predicted)


def _trig_basis(grid: PeriodicGrid):
    """Orthogonal real trigonometric basis spanning the dealias band.

    Yields (field, squared L² norm) pairs; one representative per ± mode
    pair, cosine and sine branches separately, constant mode included.
    """
    vol = math.prod(grid.lengths)
    yield np.ones(grid.shape), vol
    for mode in _mode_iter(grid.band):
        phase = _phase(grid, mode)
        yield np.cos(phase), 0.5 * vol
        yield np.sin(phase), 0.5 * vol


def fd_variational_gradients(
    zeta: ScalarField,
    v: VectorField,
    params: ModelParams,
    bath: BathymetryState,
    cfg: EllipticSolveConfig,
    delta: float = FD_DELTA,
) -> tuple[np.ndarray, np.ndarray]:
    """Variational derivatives of H by finite differences alone.

    Probes H along every trigonometric basis function of the dealias band
    (in ζ and in each velocity component) with central differences and
    reassembles the gradient fields from the projection coefficients.  The
    step is ``delta`` times the state's root-mean-square scale.
    """
    g = zeta.grid
    vol = math.prod(g.lengths)
    scale = math.hypot(g.norm_l2(zeta.data), g.norm_l2(v.data)) / math.sqrt(vol)
    step = delta * max(scale, 1e-6)

    depth = make_depth(params, zeta.data, bath)

    def ham_z(z):  # a surface probe moves the water column
        return hamiltonian_gn(z, v.data, params, make_depth(params, z, bath), cfg)

    def ham_v(vel):  # a velocity probe leaves it as it is
        return hamiltonian_gn(zeta.data, vel, params, depth, cfg)

    grad_z = np.zeros(g.shape)
    grad_v = np.zeros((g.dim,) + g.shape)
    for e, norm_sq in _trig_basis(g):
        fd = (ham_z(zeta.data + step * e) - ham_z(zeta.data - step * e)) / (2.0 * step)
        grad_z += (fd / norm_sq) * e
        for comp in range(g.dim):
            vp = v.data.copy()
            vp[comp] = vp[comp] + step * e
            vm = v.data.copy()
            vm[comp] = vm[comp] - step * e
            fd = (ham_v(vp) - ham_v(vm)) / (2.0 * step)
            grad_v[comp] += (fd / norm_sq) * e
    return grad_z, grad_v


def _skew_from_gradients(
    vel: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    grad_z: np.ndarray,
    grad_v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    g = depth.grid
    dzeta = -g.divergence(g.dealias(grad_v))
    dv = -g.gradient(g.dealias(grad_z))
    if g.dim == 2:
        q = g.dealias(g.curl(vel) / depth.h)
        dv = dv - params.epsilon * g.dealias(q * g.perp(grad_v))
    return dzeta, dv


def fd_skew_reproduction_gap(
    state: FluidState,
    params: ModelParams,
    bath: BathymetryState,
) -> tuple[float, float]:
    """Gap between the FD-gradient skew assembly and the direct tendency.

    Returns (gap, tolerance) where the tolerance is the larger of 1e−7 and
    ten times the Richardson truncation estimate obtained by halving the
    finite-difference step.  A gap at or below the tolerance confirms the
    tendency is the skew image of the energy gradient.
    """
    _require_kind(state, VariableKind.V_VARIABLE, "fd_skew_reproduction_gap")
    g = state.grid
    depth = make_depth(params, state.zeta.data, bath)
    dz, dv = rhs_gn_v(state.zeta.data, state.vel.data, params, depth, ORACLE_SOLVE)

    def assembled(step: float) -> tuple[np.ndarray, np.ndarray]:
        gz, gv = fd_variational_gradients(
            state.zeta, state.vel, params, bath, ORACLE_SOLVE, step
        )
        return _skew_from_gradients(state.vel.data, params, depth, gz, gv)

    dz_fd, dv_fd = assembled(FD_DELTA)
    dz_half, dv_half = assembled(FD_DELTA / 2.0)
    gap = math.hypot(g.norm_l2(dz - dz_fd), g.norm_l2(dv - dv_fd))
    richardson = (4.0 / 3.0) * math.hypot(
        g.norm_l2(dz_fd - dz_half), g.norm_l2(dv_fd - dv_half)
    )
    return gap, max(1e-7, 10.0 * richardson)


def check_variational_structure(
    zeta: ScalarField,
    psi_grad: VectorField,
    params: ModelParams,
    bath: BathymetryState,
    grids: Sequence[int] = (32, 64, 128),
) -> ResidualReport:
    """Energy functional gradients versus the assembled tendency.

    Per grid size the residual is the relative gap between the tendency
    assembled from the claimed variational derivatives (skew structure with
    q = curl v/h) and the direct conjugate-variable tendency; it decays
    spectrally.  On the last (finest) grid the variational derivatives are
    also recomputed purely by finite differences of the energy functional,
    and the report passes only when that assembly reproduces the tendency
    within its finite-difference tolerance as well.
    """
    residuals = []
    fd_ok = True
    for index, (g, z_g, v_g, bath_g) in enumerate(_ladder(zeta, psi_grad, bath, grids)):
        state = FluidState(ScalarField(g, z_g), VectorField(g, v_g), VariableKind.V_VARIABLE)
        dz, dv = rhs_gn_v(z_g, v_g, params, make_depth(params, z_g, bath_g), ORACLE_SOLVE)
        dz_skew, dv_skew = skew_assembled_rhs(state, params, bath_g)
        scale = max(math.hypot(g.norm_l2(dz), g.norm_l2(dv)), 1e-300)
        residuals.append(
            math.hypot(g.norm_l2(dz - dz_skew), g.norm_l2(dv - dv_skew)) / scale
        )
        if index == len(grids) - 1:
            gap, tol = fd_skew_reproduction_gap(state, params, bath_g)
            fd_ok = gap <= tol
    report = ResidualReport.from_residuals("variational_structure", grids, residuals)
    return dataclasses.replace(report, passed=report.passed and fd_ok)


# ---------------------------------------------------------------------------
# Dispersion measurement
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DispersionRow:
    """One measured mode of the linear dispersion study."""

    mode: int
    wavenumber: float
    measured_omega: float
    predicted_omega: float
    fit_ok: bool

    @property
    def relative_error(self) -> float:
        return abs(self.measured_omega - self.predicted_omega) / self.predicted_omega


def predicted_omega(k: float, mu: float) -> float:
    """Linear frequency of the dispersive system: ω² = k²/(1 + μk²/3)."""
    return abs(k) / math.sqrt(1.0 + mu * k * k / 3.0)


def dispersion_study(
    params: ModelParams,
    grid: PeriodicGrid,
    modes: Sequence[int],
    amplitude: float = 1e-6,
    periods: float = 3.0,
) -> list[DispersionRow]:
    """Measure oscillation frequencies of small right-moving waves.

    Each mode is initialized as a linear traveling wave on a flat bottom and
    integrated for several periods, at least 100 steps (and the CFL advisory
    step at most) per period; the frequency is the fitted slope of the
    unwrapped phase of the mode's surface coefficient.  ``fit_ok`` is false
    when the phase deviates from linear growth or the amplitude wanders,
    which signals an unresolved or nonlinearly contaminated mode.  The modes
    must lie in ``1 … grid.band[0]``.
    """
    if params.beta != 0.0:
        raise ValidationError("dispersion_study requires a flat bottom (beta = 0)")
    modes = [int(m) for m in modes]
    for m in modes:
        if not 0 < m <= grid.band[0]:
            raise ValidationError(f"dispersion modes must lie in 1 … {grid.band[0]}, got {m}")
    if not (math.isfinite(amplitude) and amplitude != 0.0 and 0.0 < periods < math.inf):
        raise ValidationError(
            f"dispersion needs a finite nonzero amplitude and periods > 0, got {amplitude}, {periods}"
        )
    bath = BathymetryState.flat(grid)
    x = grid.coords[0]
    length = grid.lengths[0]
    rows = []
    for m in modes:
        k = 2.0 * np.pi * m / length
        omega = predicted_omega(k, params.mu)
        zeta0 = amplitude * np.cos(k * x)
        vel0 = np.zeros((grid.dim,) + grid.shape)
        vel0[0] = (1.0 + params.mu * k * k / 3.0) * (omega / k) * zeta0
        state = FluidState(
            ScalarField(grid, zeta0), VectorField(grid, vel0), VariableKind.V_VARIABLE
        )
        period = 2.0 * np.pi / omega
        advisory = cfl_time_step(state, params, bath)
        n_per_period = max(100, int(math.ceil(period / advisory)))
        dt = period / n_per_period
        icfg = IntegrationConfig(
            dt=dt, t_end=periods * period, diag_stride=10**9, snapshot_stride=1
        )
        sinks = CollectingSinks()
        run(state, params, bath, icfg, sinks=sinks, diag_order=1)
        times = np.array([s.time for s in sinks.snapshots])
        mode = (m,) + (0,) * (grid.dim - 1)
        coeff = np.array([grid.fft(s.zeta.data)[mode] for s in sinks.snapshots])
        amp = np.abs(coeff)
        phase = np.unwrap(np.angle(coeff))
        slope, intercept = np.polyfit(times, phase, 1)
        measured = abs(slope)
        resid = float(np.max(np.abs(phase - (slope * times + intercept))))
        fit_ok = bool(
            amp[0] > 0.1 * amplitude
            and float(np.max(np.abs(amp - amp[0]))) <= 0.05 * amp[0]
            and resid <= 0.05
        )
        rows.append(DispersionRow(m, k, measured, omega, fit_ok))
    return rows


def dispersion_as_text(rows: Sequence[DispersionRow]) -> str:
    lines = ["mode  wavenumber    measured      predicted     rel_error  fit"]
    for r in rows:
        lines.append(
            f"{r.mode:>4d}  {r.wavenumber:>10.6f}  {r.measured_omega:.8f}  "
            f"{r.predicted_omega:.8f}  {r.relative_error:.3e}  "
            f"{'ok' if r.fit_ok else 'FAILED'}"
        )
    return "\n".join(lines) + "\n"


def dispersion_as_csv(rows: Sequence[DispersionRow]) -> str:
    lines = ["mode,wavenumber,measured_omega,predicted_omega,relative_error,fit_ok"]
    for r in rows:
        lines.append(
            f"{r.mode},{r.wavenumber:.17g},{r.measured_omega:.17g},"
            f"{r.predicted_omega:.17g},{r.relative_error:.17g},{int(r.fit_ok)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self-convergence studies
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConvergenceProblem:
    """A runnable initial-value problem posed on any grid resolution.

    ``initial_state`` and ``bathymetry`` are builders so the same continuum
    problem can be instantiated on every rung of a refinement ladder;
    ``integration`` describes each run, whose step the dt study replaces.
    """

    params: ModelParams
    grid: PeriodicGrid
    integration: IntegrationConfig
    initial_state: Callable[[PeriodicGrid], FluidState]
    bathymetry: Callable[[PeriodicGrid], BathymetryState] = BathymetryState.flat


def check_resolution_study(problem: ConvergenceProblem) -> None:
    """Refuse a resolution study of a grid whose axes differ."""
    _require_square("a resolution study", "configured", problem.grid)


def _final_run(
    problem: ConvergenceProblem,
    grid: PeriodicGrid,
    dt: float,
    cfg: EllipticSolveConfig | None,
) -> RunReport:
    icfg = dataclasses.replace(problem.integration, dt=dt)
    return run(problem.initial_state(grid), problem.params, problem.bathymetry(grid), icfg, cfg)


def _state_distance(a: FluidState, b: FluidState) -> float:
    g = a.grid
    return math.hypot(
        g.norm_l2(a.zeta.data - b.zeta.data), g.norm_l2(a.vel.data - b.vel.data)
    )


def dt_convergence(
    problem: ConvergenceProblem,
    dt_values: Sequence[float],
    cfg: EllipticSolveConfig | None = None,
) -> ResidualReport:
    """Self-convergence in the time step: each run against one at half the
    smallest step.  A rung is labelled by the number of steps its run takes.
    Time errors are fourth order for the default scheme."""
    dts = sorted((float(d) for d in dt_values), reverse=True)
    for d in dts:  # each given step is checked before any run
        dataclasses.replace(problem.integration, dt=d)
    reference = _final_run(problem, problem.grid, dts[-1] / 2.0, cfg).final_state
    runs = [_final_run(problem, problem.grid, d, cfg) for d in dts]
    residuals = [_state_distance(r.final_state, reference) for r in runs]
    return ResidualReport.from_residuals("dt_convergence", [r.steps for r in runs], residuals)


def resolution_convergence(
    problem: ConvergenceProblem,
    resolutions: Sequence[int],
    cfg: EllipticSolveConfig | None = None,
) -> ResidualReport:
    """Self-convergence in spatial resolution: each run against one at twice
    the largest size, restricted spectrally.  Spatial errors fall spectrally."""
    check_resolution_study(problem)
    sizes = sorted(int(n) for n in resolutions)
    fine_grid = PeriodicGrid((2 * sizes[-1],) * problem.grid.dim, problem.grid.lengths)
    dt = problem.integration.dt
    reference = _final_run(problem, fine_grid, dt, cfg).final_state
    residuals = []
    for n in sizes:
        g = PeriodicGrid((n,) * problem.grid.dim, problem.grid.lengths)
        final = _final_run(problem, g, dt, cfg).final_state
        ref_z = restrict_to_grid(reference.zeta.data, fine_grid, g)
        ref_v = restrict_to_grid(reference.vel.data, fine_grid, g)
        residuals.append(
            math.hypot(
                g.norm_l2(final.zeta.data - ref_z), g.norm_l2(final.vel.data - ref_v)
            )
        )
    return ResidualReport.from_residuals("resolution_convergence", sizes, residuals)


# ---------------------------------------------------------------------------
# Traveling-wave profile comparison
# ---------------------------------------------------------------------------


def aligned_profile_gap(grid: PeriodicGrid, field: np.ndarray, reference: np.ndarray) -> float:
    """Relative L² gap between two profiles after optimal periodic shift.

    The shift is found from the cross-correlation maximum and refined by a
    golden-section search on the continuous (spectral) shift.
    """
    if grid.dim != 1:
        raise ValidationError("profile alignment is one-dimensional")
    fa = grid.rfft(field)
    corr = grid.irfft(fa * np.conj(grid.rfft(reference)))
    shift0 = float(np.argmax(corr)) * grid.spacings[0]
    k = grid.wavenumbers[0]

    def gap(shift: float) -> float:
        shifted = grid.irfft(fa * np.exp(1j * k * shift))
        return grid.norm_l2(shifted - reference)

    dx = grid.spacings[0]
    lo, hi = shift0 - dx, shift0 + dx
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = gap(c1), gap(c2)
    for _ in range(60):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = gap(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = gap(c2)
    best = min(f1, f2)
    return best / max(grid.norm_l2(reference), 1e-300)
