"""Norms, energies and conserved functionals of the wave models.

Sobolev-type norms are computed in mode space with the literal
sum-of-derivatives weight W_n(k) = Σ_{|α|≤n} Π_i k_i^{2α_i}, so no
equivalence constants appear anywhere.  The dispersive norm of velocities
adds μ|k·û|² per mode; its dual counterpart for the conjugate variable is
realized exactly through the per-mode inverse

    M(k)⁻¹ = I − μ k kᵀ / (1 + μ|k|²),      M(k) = I + μ k kᵀ,

which on a periodic grid is the closed form of the dual quadratic form.

Energies: the Hamiltonian ½∫ ζ² + (hv)·𝔗⁻¹(hv); the symmetrizer energy
F^n built from the derivative fields with their good-unknown correction
∂^α v − με∇(w ∂^α ζ); and the classical-variable quadratic pair (F_α, G_α)
whose time balance is exercised in the tests.  The Hamiltonian and F^n take
the state's water column (a :class:`~gnwave.operators.DepthState`), so a
record builds it once for both.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import os

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import (
    FluidState,
    ModelParams,
    VariableKind,
    _require_kind,
    make_depth,
)
from .operators import (
    BathymetryState,
    DepthState,
    EllipticSolveConfig,
    SolverSession,
    apply_T,
    apply_frakT,
    good_unknown_w,
    invert_frakT,
)

__all__ = [
    "DEFAULT_ORDER",
    "DiagnosticsRecord",
    "collect_record",
    "energy_E",
    "energy_F",
    "energy_appendixA",
    "hamiltonian_gn",
    "multi_indices",
    "norm_Hn",
    "norm_Xn",
    "norm_Yn",
    "partial_derivative",
    "sobolev_weight",
    "vorticity_norm",
]

DEFAULT_ORDER = 4


def _check_order(grid: PeriodicGrid, n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValidationError(f"derivative order must be a nonnegative integer, got {n}")
    limit = min(grid.band)
    if n > limit:
        raise ValidationError(
            f"order {n} exceeds the resolution guard {limit} for shape {grid.shape}"
        )


def multi_indices(dim: int, n: int) -> list[tuple[int, ...]]:
    """All multi-indices α with |α| ≤ n, in deterministic order."""
    out = [
        alpha
        for alpha in itertools.product(range(n + 1), repeat=dim)
        if sum(alpha) <= n
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def sobolev_weight(grid: PeriodicGrid, n: int) -> np.ndarray:
    """Mode-space weight Σ_{|α|≤n} Π_i k_i^{2α_i} (first-derivative tables)."""
    _check_order(grid, n)
    kd = grid.deriv_wavenumbers
    w = np.zeros(grid.spectral_shape)
    for alpha in multi_indices(grid.dim, n):
        term = np.ones(grid.spectral_shape)
        for k, a in zip(kd, alpha):
            if a:
                term = term * k ** (2 * a)
        w += term
    return w


def partial_derivative(grid: PeriodicGrid, f: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """Spectral ∂^α of a scalar or component-stacked array."""
    if len(alpha) != grid.dim:
        raise ValidationError(f"multi-index {alpha} does not match dimension {grid.dim}")
    mult = np.ones(grid.spectral_shape, dtype=complex)
    for ik, a in zip(grid.ik, alpha):
        if a:
            mult = mult * ik**a
    return grid.irfft(mult * grid.rfft(f))


def _mode_sum(grid: PeriodicGrid, density: np.ndarray) -> float:
    return float(grid.volume * np.sum(grid.mode_multiplicity * density))


def _spectra(grid: PeriodicGrid, data: np.ndarray) -> list[np.ndarray]:
    spec = grid.fft(data)
    return [spec] if data.ndim == grid.dim else list(spec)


def norm_Hn(f: ScalarField | VectorField, n: int) -> float:
    """Square root of Σ_{|α|≤n} ‖∂^α f‖²_{L²}, exact in mode space."""
    grid = f.grid
    w = sobolev_weight(grid, n)
    density = sum(np.abs(c) ** 2 for c in _spectra(grid, f.data))
    return math.sqrt(_mode_sum(grid, w * density))


def norm_Xn(u: VectorField, n: int, mu: float) -> float:
    """Dispersive velocity norm: per mode W_n(k)·(|û|² + μ|k·û|²)."""
    grid = u.grid
    w = sobolev_weight(grid, n)
    hats = _spectra(grid, u.data)
    div_hat = grid.contract(grid.ik, hats)
    density = sum(np.abs(c) ** 2 for c in hats) + mu * np.abs(div_hat) ** 2
    return math.sqrt(_mode_sum(grid, w * density))


def norm_Yn(v: VectorField, n: int, mu: float) -> float:
    """Dual norm: per mode W_n(k)·v̂*·M(k)⁻¹·v̂ with M(k) = I + μ k kᵀ."""
    grid = v.grid
    w = sobolev_weight(grid, n)
    hats = _spectra(grid, v.data)
    k_dot = grid.contract(grid.deriv_wavenumbers, hats)
    density = sum(np.abs(c) ** 2 for c in hats) - mu * np.abs(k_dot) ** 2 / (
        1.0 - mu * grid.laplacian_multiplier
    )
    return math.sqrt(_mode_sum(grid, w * density))


def vorticity_norm(state: FluidState) -> float:
    """‖curl v‖_{L²} of a planar conjugate-variable state."""
    grid = state.grid
    if grid.dim != 2:
        raise ValidationError("vorticity_norm requires a planar (d = 2) state")
    return float(grid.norm_l2(grid.curl(state.vel.data)))


def hamiltonian_gn(
    zeta: np.ndarray,
    v: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> float:
    """½∫ ζ² + (hv)·𝔗⁻¹(hv) of the arrays ``(zeta, v)`` whose water column is
    ``depth``: quadrature with one elliptic solve.

    The kinetic part is evaluated in the stationary form ⟨hv, ũ⟩ − ½⟨𝔗ũ, ũ⟩
    so the elliptic solve error enters quadratically, not linearly.
    """
    grid = depth.grid
    hv = depth.h * v
    u, _, _ = invert_frakT(depth, hv, params.mu, cfg, session)
    frak_u = apply_frakT(depth, u, params.mu)
    kinetic = grid.inner(hv, u) - 0.5 * grid.inner(frak_u, u)
    return 0.5 * grid.integrate(zeta**2) + kinetic


def energy_E(state: FluidState, params: ModelParams, n: int = DEFAULT_ORDER) -> float:
    """Regularity functional ‖ζ‖²_{H^n} + ‖v‖²_{Y^n} of a conjugate state."""
    _require_kind(state, VariableKind.V_VARIABLE, "energy_E")
    return norm_Hn(state.zeta, n) ** 2 + norm_Yn(state.vel, n, params.mu) ** 2


# energy_F shares its terms between the calling thread and one worker on
# grids of at least this many points (128²), given two CPUs.  energy_F's
# wall time split over serial, medians of 9 alternated calls over a bottom
# on a 2-core x86-64 box: ×0.71–0.73 at 128², but ×1.2–1.3 at 64², ×1.9–2.5
# at 32² and ×1.5–2.1 in 1-D at N = 256, where each thread mostly waits for
# the other to release the interpreter.
_SPLIT_MIN_POINTS = 16_384


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def energy_F(
    state: FluidState,
    params: ModelParams,
    depth: DepthState,
    n: int = DEFAULT_ORDER,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> float:
    """Symmetrizer energy Σ_{|α|≤n} ‖ζ_α‖² + ⟨v_α, h u_α⟩.

    ζ_α = ∂^α ζ and, for |α| ≥ 1, v_α = ∂^α v − με∇(w ∂^α ζ) with the
    derivative weight w = (β∇b)·u − h∇·u; the zero index enters uncorrected.
    ``depth`` is the water column of ``state``.  u = 𝔗⁻¹(hv) is solved in
    ``session``; then each term costs one elliptic solve for
    u_α = 𝔗⁻¹(h v_α), warm-started from u in a session of its own, so a term
    depends on (state, u, w, α) alone.  ``session`` counts every solve.

    On a grid of at least :data:`_SPLIT_MIN_POINTS` points, with two CPUs
    available, the terms are shared between the calling thread and one worker
    thread that ends before this returns or raises; a worker's exception is
    raised here.  The terms are summed in the order of :func:`multi_indices`
    after both halves finish, so the result has the bits of the serial loop.
    """
    _require_kind(state, VariableKind.V_VARIABLE, "energy_F")
    grid = state.grid
    _check_order(grid, n)
    if session is None:
        session = SolverSession()
    u, _, _ = invert_frakT(depth, depth.h * state.vel.data, params.mu, cfg, session)
    w = good_unknown_w(depth, u)

    def terms(alphas: list[tuple[int, ...]]) -> list[tuple[float, int, int]]:
        return [_F_term(state, params, depth, u, w, alpha, cfg) for alpha in alphas]

    alphas = multi_indices(grid.dim, n)
    if grid.size >= _SPLIT_MIN_POINTS and _available_cpus() >= 2:
        # imported here: concurrent.futures loads logging, 0.6 MB and 9 ms at
        # startup that a run on a smaller grid does not need
        from concurrent.futures import ThreadPoolExecutor

        # α = 0 starts at its solution, u: the caller takes it and half of
        # the terms that iterate
        cut = 1 + len(alphas) // 2
        with ThreadPoolExecutor(max_workers=1) as worker:
            later = worker.submit(terms, alphas[cut:])
            done = terms(alphas[:cut]) + later.result()
    else:
        done = terms(alphas)
    total = 0.0
    for value, solves, iterations in done:
        total += value
        session.solves += solves
        session.total_iterations += iterations
    return total


def _F_term(
    state: FluidState,
    params: ModelParams,
    depth: DepthState,
    u: np.ndarray,
    w: np.ndarray,
    alpha: tuple[int, ...],
    cfg: EllipticSolveConfig | None,
) -> tuple[float, int, int]:
    """The α term of :func:`energy_F`, with the solves its session recorded
    (0 for a zero right-hand side, else 1) and their CG iterations."""
    grid = state.grid
    h = depth.h
    zeta_a = partial_derivative(grid, state.zeta.data, alpha)
    v_a = partial_derivative(grid, state.vel.data, alpha)
    if any(alpha):
        v_a = v_a - params.mu * params.epsilon * grid.gradient(w * zeta_a)
    session = SolverSession(u)
    u_a, _, _ = invert_frakT(depth, h * v_a, params.mu, cfg, session)
    value = grid.integrate(zeta_a**2) + grid.inner(v_a, h * u_a)
    return value, session.solves, session.total_iterations


def energy_appendixA(
    state: FluidState,
    params: ModelParams,
    bath: BathymetryState,
    alpha: tuple[int, ...],
) -> tuple[float, float]:
    """Classical-variable energy pair for one multi-index.

    F_α = ½∫ ζ_α² + h|u_α|² + μ h T u_α·u_α, and G_α is the quadratic form
    whose ε-weighted value balances dF_α/dt along solutions; the surface
    rate ∂t ζ entering G_α is evaluated as −∇·(hu).
    """
    _require_kind(state, VariableKind.U_VARIABLE, "energy_appendixA")
    grid = state.grid
    depth = make_depth(params, state.zeta.data, bath)
    h = depth.h
    mu = params.mu

    zeta_a = partial_derivative(grid, state.zeta.data, alpha)
    u_a = partial_derivative(grid, state.vel.data, alpha)
    t_u_a = apply_T(depth, u_a)
    f_val = 0.5 * (
        grid.integrate(zeta_a**2)
        + grid.integrate(h * np.sum(u_a**2, axis=0))
        + mu * grid.inner(h * t_u_a, u_a)
    )

    u = state.vel.data
    div_u = grid.divergence(u)
    dt_zeta = -grid.dealiased_divergence(h * u)
    d_a = grid.divergence(u_a)
    if depth.beta_grad_b is None:
        g_a = np.zeros(grid.shape)
    else:
        g_a = grid.contract(depth.beta_grad_b, u_a)
    mass_defect = dt_zeta + grid.divergence(h * u)
    g_val = 0.5 * (
        grid.integrate(div_u * zeta_a**2)
        - grid.integrate(mass_defect * np.sum(u_a**2, axis=0))
        - (mu / 3.0)
        * grid.integrate((3 * h**2 * dt_zeta + grid.divergence(h**3 * u)) * d_a**2)
        + mu * grid.integrate((2 * h * dt_zeta + grid.divergence(h**2 * u)) * g_a * d_a)
        - mu * grid.integrate(mass_defect * g_a**2)
    )
    return f_val, g_val


@dataclasses.dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled row of run diagnostics."""

    time: float
    mass: float
    hamiltonian: float
    e_norm: float
    f_norm: float
    vorticity_l2: float
    min_depth: float
    cg_iterations: int

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):  # a count is finite by type
            if not math.isfinite(getattr(self, field.name)):
                raise ValidationError(f"diagnostics field {field.name} is not finite")
        if self.min_depth <= 0.0:
            raise ValidationError(f"recorded min_depth must be positive, got {self.min_depth}")


def collect_record(
    state: FluidState,
    params: ModelParams,
    bath: BathymetryState,
    order: int = DEFAULT_ORDER,
    cfg: EllipticSolveConfig | None = None,
) -> DiagnosticsRecord:
    """Assemble a full record from a conjugate-variable state; both energies
    share the state's one water column and one fresh solver session, which
    counts the CG iterations of every solve as ``cg_iterations``.  The record
    depends on its state alone, not on the records or steps taken before it.

    The Hamiltonian's solve runs first, on the calling thread; on a large
    grid :func:`energy_F` then shares its terms with one worker thread (so
    the caches of the bottom and the water column are filled before it
    starts), and no thread outlives the call."""
    _require_kind(state, VariableKind.V_VARIABLE, "collect_record")
    grid = state.grid
    session = SolverSession()
    depth = make_depth(params, state.zeta.data, bath)
    ham = hamiltonian_gn(state.zeta.data, state.vel.data, params, depth, cfg, session)
    e_val = energy_E(state, params, order)
    f_val = energy_F(state, params, depth, order, cfg, session)
    vort = vorticity_norm(state) if grid.dim == 2 else 0.0
    return DiagnosticsRecord(
        time=state.time,
        mass=grid.integrate(state.zeta.data),
        hamiltonian=ham,
        e_norm=e_val,
        f_norm=f_val,
        vorticity_l2=vort,
        min_depth=float(depth.h_min),
        cg_iterations=session.total_iterations,
    )
