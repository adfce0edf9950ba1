"""Spectral smoothing family J^ι and the smoothed conjugate-variable tendency.

J^ι is the Fourier multiplier φ(ι|k|) with a radial profile φ that equals 1
near the origin and takes values in [0, 1].  On the discrete grid it is a
diagonal operator in the transform basis, hence exactly symmetric, exactly
commuting with every spectral derivative, and a contraction in every L²-based
norm.  ι = 0 is the identity by convention.

The smoothed evolution applies J^ι to the complete flux and forcing groups of
the conjugate-variable tendency, which by linearity amounts to smoothing the
plain tendency fields themselves.  The tendency assembles its fields as
spectra, so φ multiplies them before their one inverse transform and the
smoothing costs no transform of its own; :func:`mollify` applies J^ι to a
finished array.  φ is fixed for a run: the time stepper builds it once and
hands it to every stage's tendency.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid
from .models import ModelParams, rhs_gn_v
from .operators import DepthState, EllipticSolveConfig, SolverSession

__all__ = ["MollifierSpec", "mollify", "rhs_gn_v_mollified"]

_PROFILES = ("sharp_cutoff", "smooth_bump")


@dataclasses.dataclass(frozen=True)
class MollifierSpec:
    """Parameters of the smoothing multiplier φ(ι|k|).

    Attributes
    ----------
    iota : float
        Smoothing scale in [0, 1).  Zero disables smoothing.
    profile : str
        ``sharp_cutoff`` keeps modes with ι|k| ≤ 1 unchanged and removes the
        rest.  ``smooth_bump`` is 1 for ι|k| ≤ ½, 0 for ι|k| ≥ 1, with a
        C^∞ transition in between.
    """

    iota: float = 0.0
    profile: str = "sharp_cutoff"

    def __post_init__(self) -> None:
        if not (0.0 <= self.iota < 1.0 and math.isfinite(self.iota)):
            raise ValidationError(f"iota must lie in [0, 1), got {self.iota}")
        if self.profile not in _PROFILES:
            raise ValidationError(
                f"unknown profile {self.profile!r}, expected one of {_PROFILES}"
            )

    @property
    def is_identity(self) -> bool:
        return self.iota == 0.0

    def multiplier(self, grid: PeriodicGrid) -> np.ndarray:
        """Diagonal spectral symbol φ(ι|k|) on the grid's transform shape."""
        k2 = np.zeros(grid.spectral_shape)
        for k in grid.wavenumbers:
            k2 = k2 + k * k
        r = self.iota * np.sqrt(k2)
        if self.profile == "sharp_cutoff":
            return (r <= 1.0).astype(float)
        return _smooth_step(r)


def _smooth_step(r: np.ndarray) -> np.ndarray:
    """C^∞ cutoff: 1 on [0, ½], 0 on [1, ∞), monotone in between: with
    t = 2r − 1 clipped to [0, 1], e^{−1/(1−t)} / (e^{−1/(1−t)} + e^{−1/t}),
    whose denominator is at least e^{−2}."""
    t = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    with np.errstate(divide="ignore"):  # e^{−1/0} = e^{−∞} = 0
        upper, lower = np.exp(-1.0 / (1.0 - t)), np.exp(-1.0 / t)
    return upper / (upper + lower)


def mollify(grid: PeriodicGrid, f: np.ndarray, spec: MollifierSpec) -> np.ndarray:
    """Apply J^ι to a scalar array or a stacked vector array, multiplying
    each component's spectrum by φ(ι|k|).  ι = 0 returns ``f`` itself."""
    if spec.is_identity:
        return f
    return grid.irfft(spec.multiplier(grid) * grid.rfft(f))


def rhs_gn_v_mollified(
    zeta: np.ndarray,
    vel: np.ndarray,
    params: ModelParams,
    depth: DepthState,
    multiplier: np.ndarray | None,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> np.ndarray:
    """Conjugate-variable tendency with J^ι wrapped around both equation groups.

    The smoothing acts on the entire mass flux divergence and on the entire
    momentum forcing group (pressure gradient included), which by linearity
    equals smoothing the plain tendency.  ``multiplier``, the symbol φ of
    :meth:`MollifierSpec.multiplier`, scales the tendency's spectra before
    their inverse transform: :func:`mollify` of the plain tendency to
    round-off.  None (ι = 0) reproduces the plain tendency identically.
    """
    return rhs_gn_v(zeta, vel, params, depth, cfg, session, multiplier)
