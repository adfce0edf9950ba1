"""Shared builders for test states: band-limited random fields and depths."""
from __future__ import annotations

import math

import numpy as np

from gnwave.errors import BlowUpError, CoercivityViolationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import ModelParams, make_depth
from gnwave.operators import BathymetryState, DepthState, _inner
from gnwave.timeloop import BLOWUP_LIMIT


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


def split_tendency(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dζ, dv) of a stacked tendency: its row 0 and the velocity rows after it."""
    return k[0], k[1:]


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


# ------------------------------------------------ the step on two arrays
#
# The RK4 and SSP-RK3 steps as they were written when the stepper carried ζ
# and v as two arrays: each stage combination, blow-up scan and guard formed
# per array, and the step result projected as their concatenation.  The
# stepper's stacked (1 + dim, *shape) step keeps every arithmetic order, so it
# must equal this bit for bit.


def _check_two_arrays(zeta: np.ndarray, vel: np.ndarray, t: float) -> None:
    peak_z, peak_v = float(np.abs(zeta).max()), float(np.abs(vel).max())
    if not (peak_z <= BLOWUP_LIMIT and peak_v <= BLOWUP_LIMIT):
        peak = float(np.maximum(peak_z, peak_v))
        raise BlowUpError(
            f"field magnitude {peak:.3e} at t = {t:.6g} exceeds {BLOWUP_LIMIT:.0e}",
            time=t,
            norm=peak,
        )


def advance_two_arrays(
    stepper, z: np.ndarray, v: np.ndarray, step: int, t: float, dt: float, t_next: float
) -> tuple[np.ndarray, np.ndarray]:
    """Step ``step`` of a ``timeloop._Stepper`` from the in-band ``(z, v)``,
    each stage through the stepper's guards, session and tendency, with the
    tendency's stacked result split into ``(dζ, dv)``."""

    def rhs(index: int, zs: np.ndarray, vs: np.ndarray, offset: float):
        time = t + offset * dt
        if index:
            _check_two_arrays(zs, vs, time)
        depth = make_depth(stepper.params, zs, stepper.bath)
        if depth.h_min <= 0.5 * stepper.floor:
            raise CoercivityViolationError("stage depth fell to half the floor", depth.h_min)
        stepper.session.stage = (index, step, offset, dt)
        return split_tendency(stepper._tendency(zs, vs, depth))

    if stepper.scheme == "rk4":
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
    both = stepper.grid.dealias(np.concatenate((nz[None], nv)))
    nz, nv = both[0], both[1:]
    _check_two_arrays(nz, nv, t_next)
    return nz, nv
