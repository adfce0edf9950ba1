"""Solitary-wave initial states of the one-dimensional flat-bottom model.

The profile is built independently of the time stepper, from the steady
traveling-wave ODE, so it serves both as a run's initial condition and as
the reference shape for propagation-fidelity studies.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import FluidState, ModelParams, VariableKind, v_from_u
from .operators import BathymetryState

__all__ = ["solitary_wave_profile", "solitary_wave_state"]

_TAIL_SWITCH = 1e-5


def solitary_wave_profile(
    x: np.ndarray, amplitude: float, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Steady solitary-wave profile from the one-dimensional traveling ODE.

    A right-moving permanent-form solution on a flat bottom satisfies, after
    integrating the mass equation (hu = cζ) and the momentum equation twice,
    the depth ODE::

        h'' = (3 / (2 μ c²)) (h − 1) (2c² − 3h + 1),    c² = 1 + ε·amplitude,

    with the crest at h = c² where h' = 0.  The profile is integrated
    outward from the crest with a high-order adaptive scheme; once the
    elevation falls below a small fraction of the amplitude the exact
    asymptotic exponential tail (rate √(3(c²−1)/(μc²))) is attached, which
    avoids the instability of tracking the decaying orbit numerically.

    Returns (ζ, u, c) sampled at |x|; x may be any array of offsets from
    the crest.
    """
    if amplitude <= 0.0 or not math.isfinite(amplitude):
        raise ValidationError(f"solitary amplitude must be positive, got {amplitude}")
    if params.mu <= 0.0:
        raise ValidationError("solitary waves require dispersion (mu > 0)")
    if params.epsilon <= 0.0:
        raise ValidationError("solitary waves require nonlinearity (epsilon > 0)")
    eps, mu = params.epsilon, params.mu
    c2 = 1.0 + eps * amplitude
    lam = math.sqrt(3.0 * (c2 - 1.0) / (mu * c2))

    def ode(_x, y):
        h, hp = y
        return [hp, 1.5 / (mu * c2) * (h - 1.0) * (2.0 * c2 - 3.0 * h + 1.0)]

    floor = _TAIL_SWITCH * eps * amplitude

    def tail_event(_x, y):
        return (y[0] - 1.0) - floor

    tail_event.terminal = True
    tail_event.direction = -1

    r = np.abs(np.asarray(x, dtype=float))
    r_max = float(np.max(r)) if r.size else 0.0
    sol = solve_ivp(
        ode,
        (0.0, max(r_max, 1.0)),
        [c2, 0.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        dense_output=True,
        events=tail_event,
    )
    h = np.empty_like(r)
    if sol.t_events[0].size:
        x_star = float(sol.t_events[0][0])
        h_star = float(sol.y_events[0][0][0])
        core = r <= x_star
        if np.any(core):
            h[core] = sol.sol(r[core])[0]
        h[~core] = 1.0 + (h_star - 1.0) * np.exp(-lam * (r[~core] - x_star))
    else:
        h[:] = sol.sol(r)[0]
    c = math.sqrt(c2)
    zeta = (h - 1.0) / eps
    u = c * zeta / h
    return zeta, u, c


def solitary_wave_state(
    grid: PeriodicGrid,
    amplitude: float,
    params: ModelParams,
    center: float | None = None,
    kind: VariableKind = VariableKind.V_VARIABLE,
) -> FluidState:
    """Solitary-wave initial state on a 1D periodic grid.

    The profile is centered at ``center`` (mid-domain by default) using the
    periodic minimal-image offset; the conjugate variable is produced by the
    exact forward map when requested.
    """
    if grid.dim != 1:
        raise ValidationError("solitary_wave_state requires a one-dimensional grid")
    length = grid.lengths[0]
    x0 = 0.5 * length if center is None else float(center)
    x = grid.coords[0]
    offset = (x - x0 + 0.5 * length) % length - 0.5 * length
    zeta, u, _c = solitary_wave_profile(offset, amplitude, params)
    state = FluidState(
        ScalarField(grid, zeta),
        VectorField(grid, u[np.newaxis]),
        VariableKind.U_VARIABLE,
    )
    if kind is VariableKind.U_VARIABLE:
        return state
    return v_from_u(state, params, BathymetryState.flat(grid))
