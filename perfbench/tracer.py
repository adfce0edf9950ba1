"""Outside-in span tracing of one `gnwave run`, installed from the benchmark's files.

The tracer replaces, by attribute assignment, the functions each gnwave module
exposes to the module above it with wrappers that open a span, call the
original, and close the span.  Spans live in memory: each keeps its name, its
parent's index, start and end, and what was charged to it while it was the
innermost open span: real-transform calls (numpy and scipy, wherever they are
called), their time and their computed flops and bytes, and ``PeriodicGrid``
calculus calls and time.  Grid calculus and transforms are counted, not made
into spans, so a span's self time includes the calculus it runs itself.

Nothing here changes arguments or results, so a traced run must reproduce the
untraced run's artifacts bit for bit; the benchmark checks that.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

_FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
)
_CALCULUS = ("gradient", "divergence", "curl", "perp", "dealias", "multiply_dealiased")

perf_counter = time.perf_counter


class Span:
    __slots__ = (
        "name", "parent", "start", "end", "child_s", "fft_calls", "fft_s",
        "fft_flops", "fft_bytes", "calc_calls", "calc_s", "iterations", "residual",
        "index",
    )

    def __init__(self, name: str, parent: int, start: float, index: int) -> None:
        self.name = name
        self.index = index
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.fft_calls = 0
        self.fft_s = 0.0
        self.fft_flops = 0.0
        self.fft_bytes = 0
        self.calc_calls = 0
        self.calc_s = 0.0
        self.iterations = 0
        self.residual = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "id": self.index,
            "parent": self.parent,
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "self_s": self.duration - self.child_s,
            "fft_calls": self.fft_calls,
            "fft_s": self.fft_s,
            "calc_calls": self.calc_calls,
            "calc_s": self.calc_s,
            "pcg_iterations": self.iterations,
            "residual": self.residual,
        }


def _transform_points(real_shape: tuple[int, ...], args: tuple, kwargs: dict, nd: bool) -> int:
    """Points of one transform along the transformed axes of the real-side array."""
    if nd:
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        if axes is None:
            s = kwargs.get("s", args[0] if args else None)
            first = len(real_shape) - (len(s) if s is not None else len(real_shape))
            axes = range(first, len(real_shape))
    else:
        axes = (kwargs.get("axis", args[1] if len(args) > 1 else -1),)
    return math.prod(real_shape[a] for a in axes)


class Tracer:
    """Span stack plus the wrappers that feed it; one per traced process."""

    def __init__(self) -> None:
        self.root = Span("root", -1, perf_counter(), -1)
        self.spans: list[Span] = []
        self.stack: list[Span] = [self.root]
        self._calc_depth = 0

    # ------------------------------------------------------------ spans
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``."""
        orig = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1].index, perf_counter(), len(spans))
            spans.append(span)
            stack.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                stack[-1].child_s += span.end - span.start
            if on_result is not None:
                on_result(span, out)
            return out

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------ counters
    def count_transform(self, owner, attr: str):
        """Replace ``owner.attr`` by a counting wrapper and return the wrapper."""
        orig = getattr(owner, attr)
        stack = self.stack
        nd = attr.endswith("n") or attr.endswith("2")
        real_in = attr in ("rfft", "rfft2", "rfftn", "ihfft")
        real_out = attr in ("irfft", "irfft2", "irfftn", "hfft")
        per_point = 2.5 if (real_in or real_out) else 5.0
        sizes: dict = {}  # (input shape, arguments) -> (flops, bytes)

        def size_of(a, out, args, kwargs) -> tuple[float, int]:
            real_shape = (out if real_out else a).shape
            n = _transform_points(real_shape, args, kwargs, nd)
            flops = per_point * math.prod(real_shape) * math.log2(n) if n > 1 else 0.0
            return flops, a.nbytes + out.nbytes

        @functools.wraps(orig)
        def wrapper(a, *args, **kwargs):
            t0 = perf_counter()
            out = orig(a, *args, **kwargs)
            dt = perf_counter() - t0
            span = stack[-1]
            span.fft_calls += 1
            span.fft_s += dt
            key = (getattr(a, "shape", None), args, tuple(kwargs.items()))
            try:
                cost = sizes.get(key)
            except TypeError:  # unhashable arguments: size every call
                key, cost = None, None
            if cost is None:
                cost = size_of(np.asarray(a), out, args, kwargs)
                if key is not None:
                    sizes[key] = cost
            flops, nbytes = cost
            span.fft_flops += flops
            span.fft_bytes += nbytes
            return out

        setattr(owner, attr, wrapper)
        return wrapper

    def count_calculus(self, owner, attr: str) -> None:
        orig = getattr(owner, attr)
        stack = self.stack
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer._calc_depth:
                return orig(*args, **kwargs)
            tracer._calc_depth += 1
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                span = stack[-1]
                span.calc_calls += 1
                span.calc_s += perf_counter() - t0
                tracer._calc_depth -= 1

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap the layer boundaries of an imported gnwave and the transforms it calls."""
        import numpy.fft

        from gnwave import cli, diagnostics, grid, io, models, regularization, timeloop

        self._install_transforms(numpy.fft)
        scipy_fft = sys.modules.get("scipy.fft")
        if scipy_fft is not None:
            self._install_transforms(scipy_fft)
        for attr in _CALCULUS:
            self.count_calculus(grid.PeriodicGrid, attr)

        w = self.wrap
        w(cli, "load_config", "io.load_config")
        w(cli, "build_bathymetry", "io.build_bathymetry")
        w(cli, "build_initial_state", "io.build_initial_state")
        w(cli, "FileSinks", "io.open_sinks")
        w(io.FileSinks, "record", "io.csv_record")
        w(io.FileSinks, "snapshot", "io.snapshot")
        w(cli, "run", "timeloop.run")
        w(timeloop._Stepper, "advance", "timeloop.step")
        for attr in ("rhs_gn_v_mollified", "rhs_gn_u", "rhs_bp", "rhs_sv"):
            w(timeloop, attr, "models." + attr)
        w(timeloop, "v_from_u", "models.v_from_u")
        w(regularization, "rhs_gn_v", "models.rhs_gn_v")
        w(regularization, "mollify", "regularization.mollify")

        def solved(span: Span, result) -> None:
            span.iterations = int(result.iterations)
            span.residual = float(result.residual)

        for owner in (models, diagnostics):
            w(owner, "invert_frakT", "operators.invert_frakT", solved)
        for attr in ("apply_Q", "apply_Qb", "apply_R", "apply_Rb", "apply_T"):
            w(models, attr, "operators." + attr)
        w(timeloop, "collect_record", "diagnostics.collect_record")
        for attr in ("hamiltonian_gn", "energy_E", "energy_F"):
            w(diagnostics, attr, "diagnostics." + attr)

    def _install_transforms(self, module) -> None:
        swaps = []
        for attr in _FFT_NAMES:
            if hasattr(module, attr):
                orig = getattr(module, attr)
                swaps.append((orig, self.count_transform(module, attr)))
        # a gnwave module that imported a transform by name holds the original
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "gnwave" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                for orig, wrapper in swaps:
                    if value is orig:
                        setattr(mod, key, wrapper)

    # ------------------------------------------------------------ output
    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
