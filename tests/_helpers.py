"""Shared builders for test states: band-limited random fields and depths."""
from __future__ import annotations

import math

import numpy as np

from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import ModelParams, make_depth
from gnwave.operators import BathymetryState, DepthState, _inner


def band_limited_scalar(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    max_mode: int = 4,
    amplitude: float = 1.0,
    n_modes: int = 8,
    zero_mean: bool = True,
) -> np.ndarray:
    """Random trigonometric polynomial with |m_i| <= max_mode per axis."""
    out = np.zeros(grid.shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    coeffs = rng.standard_normal(n_modes)
    for j in range(n_modes):
        arg = phases[j]
        for axis in range(grid.dim):
            m = int(rng.integers(-max_mode, max_mode + 1))
            arg = arg + m * (2.0 * np.pi / grid.lengths[axis]) * grid.coords[axis]
        out = out + coeffs[j] * np.cos(arg)
    if zero_mean:
        out = out - out.mean()
    peak = float(np.max(np.abs(out)))
    if peak > 0.0:
        out = out * (amplitude / peak)
    return out


def band_limited_vector(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    max_mode: int = 4,
    amplitude: float = 1.0,
) -> np.ndarray:
    return np.stack(
        [band_limited_scalar(grid, rng, max_mode, amplitude) for _ in range(grid.dim)]
    )


def smooth_depth(
    bath: BathymetryState,
    rng: np.random.Generator,
    variation: float = 0.2,
    max_mode: int = 4,
) -> DepthState:
    h = 1.0 + band_limited_scalar(bath.grid, rng, max_mode, variation)
    return DepthState(bath, h)


def smooth_bathymetry(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    beta: float = 0.3,
    amplitude: float = 0.15,
    max_mode: int = 2,
) -> BathymetryState:
    b = band_limited_scalar(grid, rng, max_mode, amplitude)
    return BathymetryState(ScalarField(grid, b), beta)


def tendency_args(state, params: ModelParams, bath: BathymetryState) -> tuple:
    """The (zeta, vel, params, depth) a tendency takes for a FluidState."""
    return state.zeta.data, state.vel.data, params, make_depth(params, state.zeta.data, bath)


def random_velocity(grid: PeriodicGrid, seed: int, max_mode: int = 4, amplitude: float = 1.0) -> VectorField:
    rng = np.random.default_rng(seed)
    return VectorField(grid, band_limited_vector(grid, rng, max_mode, amplitude))


def fv_shallow_water(
    h0: np.ndarray,
    hu0: np.ndarray,
    dx: float,
    t_end: float,
    cfl: float = 0.4,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent shallow-water reference: MUSCL/minmod + Rusanov flux, Heun.

    Solves ∂t(h, hu) + ∂x(hu, hu² + h²/2) = 0 on a periodic cell array with
    unit gravity; second order away from shocks.
    """
    q = np.stack([h0.astype(float), hu0.astype(float)])

    def flux(qq: np.ndarray) -> np.ndarray:
        h, hu = qq
        u = hu / h
        return np.stack([hu, hu * u + 0.5 * h * h])

    def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)

    def rhs(qq: np.ndarray) -> np.ndarray:
        slope = minmod(qq - np.roll(qq, 1, axis=1), np.roll(qq, -1, axis=1) - qq)
        q_left = qq + 0.5 * slope
        q_right = np.roll(qq - 0.5 * slope, -1, axis=1)
        speed = np.maximum(
            np.abs(q_left[1] / q_left[0]) + np.sqrt(q_left[0]),
            np.abs(q_right[1] / q_right[0]) + np.sqrt(q_right[0]),
        )
        face = 0.5 * (flux(q_left) + flux(q_right)) - 0.5 * speed * (q_right - q_left)
        return -(face - np.roll(face, 1, axis=1)) / dx

    t = 0.0
    while t < t_end - 1e-12:
        h, hu = q
        smax = float(np.max(np.abs(hu / h) + np.sqrt(h)))
        dt = min(cfl * dx / smax, t_end - t)
        q_mid = q + dt * rhs(q)
        q = 0.5 * (q + q_mid + dt * rhs(q_mid))
        t += dt
    return q[0], q[1]


# ------------------------------------------------ the solve in expression form
#
# The matvec and the preconditioned CG loop as they were written before the
# solve ran in the grid's work arrays: every temporary a fresh array.  The
# work-array kernels keep each arithmetic order, so they must equal these bit
# for bit.


def _contract(symbol: np.ndarray, spec: np.ndarray) -> np.ndarray:
    out = symbol[0] * spec[0]
    for axis in range(1, len(spec)):
        out += symbol[axis] * spec[axis]
    return out


def h_times_T_oracle(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """h·T[h, βb]u in expression form."""
    grid = depth.grid
    h2d, h3d, bgb = depth.h2, depth.h3, depth.beta_grad_b
    d = grid.irfft(_contract(grid.ik_dealiased, grid.rfft(u)))
    if bgb is None:
        return -(1.0 / 3.0) * grid.dealiased_gradient(h3d * d)
    g = grid.dealias(np.einsum("i...,i...->...", bgb, u))
    spec = grid.rfft(
        np.stack((0.5 * h2d * g - (1.0 / 3.0) * h3d * d, depth.h * g - 0.5 * h2d * d))
    )
    out = grid.irfft(grid.ik_dealiased * spec[0])
    out += grid.irfft(grid.dealias_mask * spec[1]) * bgb
    return out


def frakT_oracle(depth: DepthState, u: np.ndarray, mu: float) -> np.ndarray:
    """𝔗[h, βb]u = h u + μ h T[h, βb]u in expression form."""
    out = depth.h * u
    if mu > 0.0:
        out += mu * h_times_T_oracle(depth, u)
    return out


def invert_frakT_oracle(
    depth: DepthState,
    b: np.ndarray,
    mu: float,
    rel_tolerance: float,
    x0: np.ndarray | None = None,
    stage: bool = False,
) -> tuple[np.ndarray, int, float]:
    """(u, iterations, residual) of CG on 𝔗u = b from ``x0`` (zero when None),
    preconditioned by the flat inverse at h̄ scaled by s = h̄/h on both sides,
    or for a ``stage`` solve over a flat bottom by the flat inverse itself."""
    grid = depth.grid
    h_bar = depth.mean_depth
    c = mu * h_bar * h_bar / 3.0
    weight = np.where(grid.dealias_mask, c / (1.0 - c * grid.laplacian_multiplier), 0.0)

    def flat(r):
        specs = grid.rfft(r)
        if grid.dim == 1:
            out_spec = specs * ((1.0 + weight * grid.laplacian_multiplier) / h_bar)
        else:
            out_spec = (specs + grid.ik * (weight * _contract(grid.ik, specs))) / h_bar
        return grid.irfft(out_spec)

    def precond(r):
        if stage and depth.beta_grad_b is None:
            return flat(r)
        s = h_bar / depth.h
        z = flat(s * r)
        z *= s
        return z

    b_norm = math.sqrt(_inner(b, b))
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = x0.copy()
        r = b - frakT_oracle(depth, x, mu)
    tol_abs = rel_tolerance * b_norm
    res = math.sqrt(_inner(r, r))
    iterations = 0
    if res > tol_abs:
        z = precond(r)
        p = z.copy()
        rho = _inner(r, z)
        for iterations in range(1, 10 * max(grid.shape) + 1):
            q = frakT_oracle(depth, p, mu)
            alpha = rho / _inner(p, q)
            x += alpha * p
            r -= alpha * q
            res = math.sqrt(_inner(r, r))
            if res <= tol_abs:
                break
            z = precond(r)
            rho_new = _inner(r, z)
            p = z + (rho_new / rho) * p
            rho = rho_new
    return x, iterations, res / b_norm
