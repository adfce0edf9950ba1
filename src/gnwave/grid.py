"""Periodic grids, fields, and spectral calculus.

Uniform tensor grids on periodic boxes in one and two dimensions. Spectra use
numpy's real-FFT layout (last axis halved) and are normalized by the total
point count, so the ``[0, ..., 0]`` coefficient is the mean of the field and
Parseval's identity reads::

    ∫ f g dx = |Ω| Σ_k w_k Re(f̂_k conj(ĝ_k))

with the multiplicity ``w_k ∈ {1, 2}`` accounting for the conjugate modes the
halved layout drops. First-derivative multiplier tables zero the Nyquist mode
on every axis; the reference Laplacian is assembled from the same tables so
``div(grad f)`` equals the diagonal Laplacian to round-off. Products are
dealiased by a sharp cutoff at ``|m_i| <= floor(N_i / 3)`` per axis, the band
stated once as :attr:`PeriodicGrid.band` for every reader of the package.
"""
from __future__ import annotations

import dataclasses
import threading
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

try:  # numpy >= 2.0: the transform kernels under np.fft's Python wrapper
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:  # older numpy: every transform goes through np.fft
    _pocketfft = None

__all__ = ["PeriodicGrid", "ScalarField", "VectorField"]

# gufunc ``axes`` argument of a pass along the second-to-last axis: input,
# scale factor, output.
_SECOND_AXIS = [(-2,), (), (-2,)]


class SolveWork(NamedTuple):
    """The work arrays of the elliptic solves on a grid
    (:attr:`PeriodicGrid.solve_work`): two pairs of spectra and two pairs of
    fields.  A vector of the grid, or its spectrum, is the first ``dim`` rows
    of a pair."""

    spectra: np.ndarray  # complex, (2, 2, *spectral_shape)
    pairs: np.ndarray  # real, (2, 2, *shape)


class _ThreadWork(threading.local):
    """A grid's work arrays on one thread: ``arrays``, those of the
    transforms and of :meth:`PeriodicGrid.contract` keyed by role, shape and
    dtype, and ``solve``, :attr:`PeriodicGrid.solve_work` once made.  Each
    thread sees its own, made at its first use there and freed when the
    thread ends."""

    def __init__(self) -> None:
        self.arrays: dict[tuple, np.ndarray] = {}


@dataclasses.dataclass(frozen=True, eq=False)
class PeriodicGrid:
    """Uniform periodic grid with cached spectral tables.

    Parameters
    ----------
    shape
        Points per axis, ``(N,)`` or ``(N1, N2)``. Each entry must be even
        and at least 8 so the Nyquist/dealiasing conventions are meaningful.
    lengths
        Box edge lengths, positive finite floats, same arity as ``shape``.

    A grid keeps work arrays of its own: one per leading shape for its 2-D
    transforms (see :meth:`rfft`), one per shape and dtype for the products
    of :meth:`contract`, and :attr:`solve_work` for the elliptic solves over
    it.  Each thread that uses the grid has its own set, so threads may
    transform and solve on one grid at once; each thread runs one solve at a
    time.  The read-only tables (:attr:`ik` and the others) are shared.
    """

    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        lengths = tuple(float(ell) for ell in self.lengths)
        if len(shape) not in (1, 2):
            raise ValidationError(f"grid dimension must be 1 or 2, got {len(shape)}")
        if len(lengths) != len(shape):
            raise ValidationError(
                f"lengths arity {len(lengths)} does not match shape arity {len(shape)}"
            )
        for n in shape:
            if n < 8 or n % 2 != 0:
                raise ValidationError(f"points per axis must be even and >= 8, got {n}")
        for ell in lengths:
            if not np.isfinite(ell) or ell <= 0.0:
                raise ValidationError(f"box lengths must be positive finite, got {ell}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "_thread_work", _ThreadWork())

    # ------------------------------------------------------------------ geometry

    @cached_property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(ell / n for ell, n in zip(self.lengths, self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def axis_coords(self) -> tuple[np.ndarray, ...]:
        """1D coordinate arrays per axis, ``x_i[j] = j * dx_i``."""
        out = []
        for n, dx in zip(self.shape, self.spacings):
            x = np.arange(n, dtype=np.float64) * dx
            x.flags.writeable = False
            out.append(x)
        return tuple(out)

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Dense coordinate arrays of the full grid shape."""
        mesh = np.meshgrid(*self.axis_coords, indexing="ij")
        for arr in mesh:
            arr.flags.writeable = False
        return tuple(mesh)

    def compatible(self, other: "PeriodicGrid") -> bool:
        """Same shape and box lengths (up to float equality)."""
        return self.shape == other.shape and self.lengths == other.lengths

    # ------------------------------------------------------------------ spectral tables

    @cached_property
    def spectral_shape(self) -> tuple[int, ...]:
        return self.shape[:-1] + (self.shape[-1] // 2 + 1,)

    def _axis_view(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """Reshape a per-axis 1D table so it broadcasts over the spectrum."""
        view = [1] * self.dim
        view[axis] = arr.shape[0]
        out = arr.reshape(view)
        out.flags.writeable = False
        return out

    @cached_property
    def mode_numbers(self) -> tuple[np.ndarray, ...]:
        """Integer mode numbers per axis, broadcastable over the spectrum.

        Non-final axes run over ``0, 1, ..., N/2, -N/2+1, ..., -1``; the
        final (halved) axis runs over ``0, ..., N/2``.
        """
        out = []
        for axis, n in enumerate(self.shape):
            if axis == self.dim - 1:
                m = np.arange(n // 2 + 1, dtype=np.int64)
            else:
                m = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
            out.append(self._axis_view(m, axis))
        return tuple(out)

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Radian wavenumbers ``k_i = 2π m_i / L_i`` per axis (Nyquist kept)."""
        out = []
        for axis, (m, ell) in enumerate(zip(self.mode_numbers, self.lengths)):
            k = (2.0 * np.pi / ell) * m.astype(np.float64)
            k.flags.writeable = False
            out.append(k)
        return tuple(out)

    @cached_property
    def deriv_wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Wavenumber tables for derivatives: Nyquist mode zeroed per axis."""
        out = []
        for axis, (m, k, n) in enumerate(
            zip(self.mode_numbers, self.wavenumbers, self.shape)
        ):
            kd = np.where(np.abs(m) == n // 2, 0.0, k)
            kd.flags.writeable = False
            out.append(kd)
        return tuple(out)

    @cached_property
    def laplacian_multiplier(self) -> np.ndarray:
        """Diagonal symbol of div∘grad, ``-Σ_i k_i²`` with zeroed Nyquist."""
        out = -sum(kd * kd for kd in self.deriv_wavenumbers)
        out = np.broadcast_to(out, self.spectral_shape).copy()
        out.flags.writeable = False
        return out

    @cached_property
    def band(self) -> tuple[int, ...]:
        """Largest retained ``|m_i|`` per axis under the 2/3 rule, ``floor(N_i/3)``."""
        return tuple(n // 3 for n in self.shape)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask, true where ``|m_i| <= band[i]`` on every axis."""
        mask = np.ones(self.spectral_shape, dtype=bool)
        for m, cut in zip(self.mode_numbers, self.band):
            mask &= np.abs(m) <= cut
        mask.flags.writeable = False
        return mask

    @cached_property
    def _dealias_factor(self) -> np.ndarray:
        """:attr:`dealias_mask` as complex ones and zeros.  A spectrum times it
        has the bits of one times the mask, without the cast buffer numpy
        allocates for a product of mixed dtypes (128 KiB at 128²)."""
        out = self.dealias_mask.astype(np.complex128)
        out.flags.writeable = False
        return out

    @cached_property
    def mode_multiplicity(self) -> np.ndarray:
        """Parseval weights on the halved layout: 1 for self-conjugate final-axis
        modes (0 and Nyquist), 2 otherwise."""
        m_last = self.mode_numbers[-1]
        n_last = self.shape[-1]
        w = np.where((m_last == 0) | (m_last == n_last // 2), 1.0, 2.0)
        w = np.broadcast_to(w, self.spectral_shape).copy()
        w.flags.writeable = False
        return w

    @cached_property
    def ik(self) -> np.ndarray:
        """Stacked derivative symbols ``i k_i`` (Nyquist zeroed), ``(dim, *spectral_shape)``."""
        out = np.empty((self.dim,) + self.spectral_shape, dtype=np.complex128)
        for axis, kd in enumerate(self.deriv_wavenumbers):
            out[axis] = 1j * kd
        out.flags.writeable = False
        return out

    @cached_property
    def ik_dealiased(self) -> np.ndarray:
        """:attr:`ik` with every mode beyond the 1/3 cutoff zeroed."""
        out = self.ik * self.dealias_mask
        out.flags.writeable = False
        return out

    # ------------------------------------------------------------------ transforms
    #
    # Every transform of the package goes through :meth:`rfft`/:meth:`irfft`.
    # They act on the trailing ``dim`` axes, so a stacked ``(dim, *shape)``
    # vector is transformed in one call.  Both call numpy's pocketfft gufuncs,
    # the kernels under np.fft, so the numbers are np.fft's bit for bit; the
    # grid refuses odd N, so the forward kernel is always ``rfft_n_even``.
    # In 1-D this skips np.fft's Python wrapper, which at the package's sizes
    # costs as much as the transform.  In 2-D it is about allocation:
    # np.fft.rfftn/irfftn allocate a fresh half spectrum between their two
    # passes, large enough at 128² that glibc hands its pages back between
    # calls and the next call faults them in again.  Here that intermediate
    # is a work array the grid owns on the calling thread, one per leading
    # shape (see the class docstring).  Callers get a fresh output array, or
    # pass ``out`` to have the result written there.  Numpy before 2.0 has no
    # such module and takes np.fft, copying into ``out`` when one is given.

    def _work_array(self, role: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """The calling thread's ``role`` work array of ``shape`` and
        ``dtype``, made at its first use."""
        arrays = self._thread_work.arrays
        key = (role, shape, dtype)
        buf = arrays.get(key)
        if buf is None:
            buf = arrays[key] = np.empty(shape, dtype)
        return buf

    def _half_spectrum(self, lead: tuple[int, ...]) -> np.ndarray:
        """The complex ``lead + spectral_shape`` array between two passes."""
        return self._work_array("half", lead + self.spectral_shape, np.dtype(np.complex128))

    @property
    def solve_work(self) -> SolveWork:
        """The calling thread's work arrays of the elliptic solves over this
        grid, made at their first use there.

        A solve over a bottom runs its matvec, preconditioner and updates in
        these few arrays, so its iterations allocate nothing of grid size:
        a fresh 128² temporary is large enough that glibc may hand its pages
        back, and the next one faults them in again.  They are few so that
        they stay in cache.  Their contents last until the next operator of
        ``gnwave.operators`` runs on this grid from the same thread.
        """
        try:  # one lookup when it exists: the 1-D solves ask for it per iteration
            return self._thread_work.solve
        except AttributeError:
            work = self._thread_work.solve = SolveWork(
                np.empty((2, 2) + self.spectral_shape, dtype=np.complex128),
                np.empty((2, 2) + self.shape),
            )
            return work

    def rfft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unnormalized real spectrum over the trailing grid axes, into ``out``
        when given."""
        if _pocketfft is None:
            spec = np.fft.rfftn(f, axes=tuple(range(-self.dim, 0)))
            if out is None:
                return spec
            out[...] = spec
            return out
        if out is None:
            out = np.empty(f.shape[: f.ndim - self.dim] + self.spectral_shape, dtype=np.complex128)
        if self.dim == 1:
            return _pocketfft.rfft_n_even(f, 1.0, out=out)
        half = _pocketfft.rfft_n_even(f, 1.0, out=self._half_spectrum(out.shape[:-2]))
        return _pocketfft.fft(half, 1.0, axes=_SECOND_AXIS, out=out)

    def irfft(self, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`rfft`, real arrays of the grid shape, into ``out``
        when given."""
        if _pocketfft is None:
            f = np.fft.irfftn(spec, s=self.shape, axes=tuple(range(-self.dim, 0)))
            if out is None:
                return f
            out[...] = f
            return out
        if out is None:
            out = np.empty(spec.shape[: spec.ndim - self.dim] + self.shape, dtype=np.float64)
        if self.dim == 2:
            half = self._half_spectrum(out.shape[:-2])
            spec = _pocketfft.ifft(spec, 1.0 / self.shape[0], axes=_SECOND_AXIS, out=half)
        return _pocketfft.irfft(spec, 1.0 / self.shape[-1], out=out)

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Normalized spectrum; ``fft(f)[..., 0, ..., 0]`` is the mean."""
        return self.rfft(f) / self.size

    def ifft(self, spec: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fft`, returning real arrays of the grid shape."""
        return self.irfft(spec * self.size)

    def contract(
        self, symbol: np.ndarray, spec: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``Σ_i symbol_i spec_i`` over the stacked leading axis of both, into
        ``out`` when given.  Each product after the first goes through a work
        array of the grid, one per shape and dtype."""
        out = np.multiply(symbol[0], spec[0], out=out)
        for axis in range(1, self.dim):
            out += np.multiply(
                symbol[axis], spec[axis], out=self._work_array("product", out.shape, out.dtype)
            )
        return out

    # ------------------------------------------------------------------ calculus

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Gradient of a scalar array, stacked as ``(dim, *shape)``."""
        return self.irfft(self.ik * self.rfft(f))

    def divergence(self, u: np.ndarray) -> np.ndarray:
        """Divergence of a stacked vector array ``(dim, *shape)``."""
        return self.irfft(self.contract(self.ik, self.rfft(u)))

    def dealiased_gradient(self, f: np.ndarray) -> np.ndarray:
        """Gradient of the dealiased projection of a scalar array."""
        return self.irfft(self.ik_dealiased * self.rfft(f))

    def dealiased_divergence(self, u: np.ndarray) -> np.ndarray:
        """Dealiased divergence of a stacked vector array."""
        return self.irfft(self.contract(self.ik_dealiased, self.rfft(u)))

    def curl(self, u: np.ndarray) -> np.ndarray:
        """Scalar curl ``∂x u_y - ∂y u_x`` in 2D; identically zero in 1D."""
        if self.dim == 1:
            return np.zeros(self.shape, dtype=np.float64)
        ikx, iky = self.ik
        spec = self.rfft(u)
        return self.irfft(ikx * spec[1] - iky * spec[0])

    def perp(self, u: np.ndarray) -> np.ndarray:
        """Counterclockwise rotation ``(u_x, u_y) -> (-u_y, u_x)``. 2D only."""
        if self.dim != 2:
            raise ValidationError("perp is only defined on 2D grids")
        return np.stack((-u[1], u[0]))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Project out modes beyond the 1/3 cutoff (scalars or stacked vectors)."""
        return self.irfft(self.dealias_spectrum(self.rfft(f)))

    def dealias_spectrum(self, spec: np.ndarray) -> np.ndarray:
        """Zero the modes of a spectrum beyond the 1/3 cutoff, in place."""
        spec *= self._dealias_factor
        return spec

    def multiply_dealiased(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Pointwise product followed by the dealiasing projection."""
        return self.dealias(f * g)

    # ------------------------------------------------------------------ quadrature

    def integrate(self, f: np.ndarray) -> float:
        """Trapezoidal (here: exact rectangle) quadrature of a scalar array."""
        return float(f.sum() * self.cell_volume)

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """L² inner product; for stacked vectors this is ``∫ u · v``."""
        return float((f * g).sum() * self.cell_volume)

    def norm_l2(self, f: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(f, f), 0.0)))


def _as_readonly(data: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)  # always a private copy
    if arr.shape != shape:
        raise ValidationError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class _Field:
    """Immutable data on a :class:`PeriodicGrid`."""

    grid: PeriodicGrid
    data: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarField(_Field):
    """Immutable scalar field sampled on a :class:`PeriodicGrid`."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_readonly(self.data, self.grid.shape, "scalar field"))

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))


@dataclasses.dataclass(frozen=True, eq=False)
class VectorField(_Field):
    """Immutable velocity-like field, components stacked as ``(dim, *shape)``."""

    def __post_init__(self) -> None:
        shape = (self.grid.dim,) + self.grid.shape
        object.__setattr__(self, "data", _as_readonly(self.data, shape, "vector field"))

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "VectorField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape))
