"""A fixed reference kernel per workload, timed next to the program to gauge host speed.

The reference box is a small VM on a shared host whose speed swings by up to
1.8x for seconds to minutes at a time; wall time and thread CPU time swing
alike (no steal time is reported), so no clock of the guest removes it.  The
benchmark therefore times, in the same process and interleaved with the RK
steps, a kernel of fixed work that resembles the workload (the same transform
calls on arrays of the same shape, the same kind of elementwise work) and
scales each measured time by ``reference_ms / kernel_ms``, the kernel's
nominal time over its time measured around it.  A scaled time is the time the
program would have taken with the host at its reference speed; the raw times
are kept in the run's details.

The kernels live here, not in ``gnwave``, so a change to the program never
changes them.  Their numpy functions are bound when this module is imported,
before any tracer wraps ``numpy.fft``.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_rfftn = np.fft.rfftn
_irfftn = np.fft.irfftn
_einsum = np.einsum
_vdot = np.vdot
_norm = np.linalg.norm


class Kernel:
    """Fixed work on a periodic grid of ``shape``, in two parts.

    ``fft_rounds`` rounds of what a spectral tendency does most: a forward
    transform, a wavenumber product, two inverse transforms, a dot product of
    two vector fields.  ``array_rounds`` rounds of what a conjugate-gradient
    iteration does besides its operator: in-place vector updates, a dot
    product and a norm of a two-component field.  The host's slow spells slow
    the transforms more than the vector updates, so the mix of the two is
    chosen to slow down as much as the workload's steps do.
    ``reference_ms`` is the kernel's time on the reference box in its fast
    state; it only sets the scale.
    """

    def __init__(
        self, shape: tuple[int, ...], fft_rounds: int, array_rounds: int, reference_ms: float
    ) -> None:
        self.shape = shape
        self.fft_rounds = fft_rounds
        self.array_rounds = array_rounds
        self.reference_ms = reference_ms
        self.axes = tuple(range(len(shape)))
        rng = np.random.default_rng(12345)
        self.field = rng.standard_normal(shape)
        spec_shape = shape[:-1] + (shape[-1] // 2 + 1,)
        self.symbol = 1j * rng.standard_normal(spec_shape)
        self.vector = rng.standard_normal((2,) + shape)
        self.other = rng.standard_normal((2,) + shape)
        self.work = np.empty_like(self.vector)

    def run(self) -> float:
        field, symbol, vector, axes, shape = self.field, self.symbol, self.vector, self.axes, self.shape
        other, work = self.other, self.work
        total = 0.0
        for _ in range(self.fft_rounds):
            spec = _rfftn(field, axes=axes) / field.size
            grad = _irfftn(symbol * spec * field.size, s=shape, axes=axes)
            back = _irfftn(spec * field.size, s=shape, axes=axes)
            dot = _einsum("i...,i...->...", vector, vector[::-1]) + grad * back
            total += float(_vdot(spec.ravel(), spec.ravel()).real) + float(dot.sum())
        for _ in range(self.array_rounds):
            np.multiply(vector, other, out=work)
            work += vector
            work *= 0.5
            step = vector * 0.25 + work
            total += float(_vdot(step.ravel(), other.ravel())) + float(_norm(step.ravel()))
        return total


class Calibration:
    """Kernel samples taken during one process, and the scaling they imply."""

    def __init__(self, kernel: Kernel, every: int) -> None:
        self.kernel = kernel
        self.every = every
        self.starts: list[float] = []
        self.ms: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.kernel.run()
        t1 = time.perf_counter()
        self.cpu_s += time.process_time() - c0
        self.wall_s += t1 - t0
        self.starts.append(t0)
        self.ms.append(1e3 * (t1 - t0))

    def factor(self, t0: float, t1: float) -> float:
        """Scale for an interval [t0, t1]: the samples just before and just after it."""
        i = bisect.bisect_right(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        near = self.ms[max(0, i - 1) : j + 1] or self.ms
        return self.kernel.reference_ms / statistics.median(near)

    def overall(self) -> float:
        """Scale for the whole process: the median of all its samples."""
        return self.kernel.reference_ms / statistics.median(self.ms)
