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
finished array.
"""
from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid
from .models import ModelParams, rhs_gn_v
from .operators import DepthState, EllipticSolveConfig, SolverSession

__all__ = ["MollifierSpec", "mollify", "rhs_gn_v_mollified"]

_PROFILES = ("sharp_cutoff", "smooth_bump")

# grid -> {spec: φ table}; an entry goes with its grid
_MULTIPLIERS: "weakref.WeakKeyDictionary[PeriodicGrid, dict]" = weakref.WeakKeyDictionary()


@dataclasses.dataclass(frozen=True)
class MollifierSpec:
    """Parameters of the smoothing multiplier φ(ι|k|).

    Attributes
    ----------
    iota : float
        Smoothing scale in [0, 1).  Zero disables smoothing.
    profile : str
        ``sharp_cutoff`` keeps modes with ι|k| ≤ 1 unchanged and removes the
        rest.  ``smooth_bump`` is 1 for ι|k| ≤ r0, 0 for ι|k| ≥ r1, with a
        C^∞ transition in between.
    r0, r1 : float
        Inner and outer radii of the smooth profile, 0 < r0 < r1.
    """

    iota: float = 0.0
    profile: str = "sharp_cutoff"
    r0: float = 0.5
    r1: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.iota < 1.0 and math.isfinite(self.iota)):
            raise ValidationError(f"iota must lie in [0, 1), got {self.iota}")
        if self.profile not in _PROFILES:
            raise ValidationError(
                f"unknown profile {self.profile!r}, expected one of {_PROFILES}"
            )
        if self.profile == "smooth_bump" and not 0.0 < self.r0 < self.r1:
            raise ValidationError(
                f"smooth_bump radii must satisfy 0 < r0 < r1, got {self.r0}, {self.r1}"
            )

    @property
    def is_identity(self) -> bool:
        return self.iota == 0.0

    def multiplier(self, grid: PeriodicGrid) -> np.ndarray:
        """Diagonal spectral symbol φ(ι|k|) on the grid's transform shape.

        Built once per grid and spec, then returned read-only from a cache
        that lives as long as the grid.
        """
        tables = _MULTIPLIERS.setdefault(grid, {})
        phi = tables.get(self)
        if phi is None:
            phi = self._build_multiplier(grid)
            phi.flags.writeable = False
            tables[self] = phi
        return phi

    def _build_multiplier(self, grid: PeriodicGrid) -> np.ndarray:
        k2 = np.zeros(grid.spectral_shape)
        for k in grid.wavenumbers:
            k2 = k2 + k * k
        r = self.iota * np.sqrt(k2)
        if self.profile == "sharp_cutoff":
            return (r <= 1.0).astype(float)
        return _smooth_step(self.r0, self.r1, r)


def _smooth_step(r0: float, r1: float, r: np.ndarray) -> np.ndarray:
    """C^∞ cutoff: 1 on [0, r0], 0 on [r1, ∞), monotone in between."""
    t = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)

    def bump(s: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    upper = bump(1.0 - t)
    lower = bump(t)
    return upper / (upper + lower + np.finfo(float).tiny * (upper + lower == 0.0))


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
    spec: MollifierSpec,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate-variable tendency with J^ι wrapped around both equation groups.

    The smoothing acts on the entire mass flux divergence and on the entire
    momentum forcing group (pressure gradient included), which by linearity
    equals smoothing the plain tendency.  J^ι is applied to the tendency's
    spectra before their inverse transform, which is :func:`mollify` of the
    plain tendency to round-off.  ι = 0 reproduces it identically.
    """
    multiplier = None if spec.is_identity else spec.multiplier(depth.grid)
    return rhs_gn_v(zeta, vel, params, depth, cfg, session, multiplier)
