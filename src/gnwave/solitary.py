"""Solitary-wave initial states of the one-dimensional flat-bottom model.

The profile is the closed-form Green–Naghdi (Serre) solitary wave,
h = 1 + (c² − 1)·sech²(λx/2), built independently of the time stepper, so it
serves both as a run's initial condition and as the reference shape for
propagation-fidelity studies.  ``tests/test_verify.py``
(``test_sech_squared_solves_profile_equation``) proves symbolically that
this form solves the steady traveling-wave ODE.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid, ScalarField, VectorField
from .models import FluidState, ModelParams, VariableKind, v_from_u
from .operators import BathymetryState

__all__ = ["solitary_wave_profile", "solitary_wave_state"]


def solitary_wave_profile(
    x: np.ndarray, amplitude: float, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Steady solitary-wave profile of the one-dimensional flat-bottom model.

    A right-moving permanent-form solution satisfies, after integrating the
    mass equation (hu = cζ) and the momentum equation twice, the depth ODE::

        h'' = (3 / (2 μ c²)) (h − 1) (2c² − 3h + 1),    c² = 1 + ε·amplitude,

    whose crest is at h = c².  Its decaying solution is the closed form
    (Serre 1953; Su & Gardner 1969)::

        h = 1 + (c² − 1) sech²(λx/2),    λ = √(3(c² − 1)/(μc²)),

    with sech²(λx/2) evaluated as 4e/(1 + e)², e = exp(−λ|x|), which cannot
    overflow at any offset.

    Returns (ζ, u, c) with ζ = (h − 1)/ε and u = cζ/h; x may be any array
    of offsets from the crest.
    """
    if amplitude <= 0.0 or not math.isfinite(amplitude):
        raise ValidationError(f"solitary amplitude must be positive, got {amplitude}")
    if params.mu <= 0.0:
        raise ValidationError("solitary waves require dispersion (mu > 0)")
    if params.epsilon <= 0.0:
        raise ValidationError("solitary waves require nonlinearity (epsilon > 0)")
    eps = params.epsilon
    c2 = 1.0 + eps * amplitude
    lam = math.sqrt(3.0 * (c2 - 1.0) / (params.mu * c2))
    e = np.exp(-lam * np.abs(np.asarray(x, dtype=float)))
    h = 1.0 + (c2 - 1.0) * 4.0 * e / (1.0 + e) ** 2
    c = math.sqrt(c2)
    zeta = (h - 1.0) / eps
    u = c * zeta / h
    return zeta, u, c


def solitary_wave_state(
    grid: PeriodicGrid,
    amplitude: float,
    params: ModelParams,
    kind: VariableKind = VariableKind.V_VARIABLE,
) -> FluidState:
    """Solitary-wave initial state on a 1D periodic grid.

    The profile is centered mid-domain; grid points lie in [0, L), so
    x − L/2 is already the periodic minimal-image offset.  The conjugate
    variable is produced by the exact forward map when requested.
    """
    if grid.dim != 1:
        raise ValidationError("solitary_wave_state requires a one-dimensional grid")
    offset = grid.coords[0] - 0.5 * grid.lengths[0]
    zeta, u, _c = solitary_wave_profile(offset, amplitude, params)
    state = FluidState(
        ScalarField(grid, zeta),
        VectorField(grid, u[np.newaxis]),
        VariableKind.U_VARIABLE,
    )
    if kind is VariableKind.U_VARIABLE:
        return state
    return v_from_u(state, params, BathymetryState.flat(grid))
