"""The benchmark's reference workloads, each a `gnwave run` config built from a seed.

The seed picks only the physical amplitudes and the hump centre; grid, model,
tolerances and step counts are fixed per workload, so one seed always yields
the same INI text.  Each generated run records diagnostics and writes a GNWV1
snapshot at its first and last state only, so the benchmark can check the
final state while steps dominate the run.
"""
from __future__ import annotations

import math
import random

# A diagnostics or snapshot stride this large never fires between the first
# and the last state.
NEVER = 10**9

BOX_2D = 4.0 * math.pi

OUTPUT = f"""
[output]
directory = {{directory}}
diag_stride = {NEVER}
snapshot_stride = {NEVER}
formats = csv snapshot
"""


class Workload:
    """One benchmark case: a fixed problem with seeded amplitudes.

    ``steps`` is the number of RK steps one `gnwave run` of the case takes,
    and ``nominal_s`` the wall seconds such a process takes on the reference
    box (2 cores); a benchmark run of S seconds starts S / ``nominal_s`` of
    them, so every run of one S measures the same work.  ``kernel`` is the
    reference kernel (``calib.Kernel`` arguments) timed after every
    ``calibrate_every`` steps to gauge the host's speed.  Why each case is in
    the benchmark is stated in BENCHMARK.json.
    """

    def __init__(
        self, name: str, steps: int, nominal_s: float, kernel: tuple, calibrate_every: int
    ) -> None:
        self.name = name
        self.steps = steps
        self.nominal_s = nominal_s
        self.kernel = kernel
        self.calibrate_every = calibrate_every

    def calibration(self):
        from calib import Calibration, Kernel

        return Calibration(Kernel(*self.kernel), self.calibrate_every)

    def ini(self, seed: int, directory: str, steps: int | None = None) -> str:
        raise NotImplementedError


class SolitonWorkload(Workload):
    """The criterion-08 problem: a GN solitary wave on a 1-D box, dt = CFL/4."""

    def ini(self, seed: int, directory: str, steps: int | None = None) -> str:
        amplitude = random.Random(seed).uniform(0.18, 0.22)
        steps = self.steps if steps is None else steps
        head = f"""\
[model]
formulation = gn_v
epsilon = 1.0
beta = 0.0
mu = 1.0

[grid]
shape = 256
lengths = 50.0

[elliptic]
rel_tolerance = 1e-08

[initial]
type = solitary_wave
amplitude = {amplitude!r}

[bathymetry]
type = flat
""" + OUTPUT.format(directory=directory)
        dt = _quarter_cfl_step(head)
        return head + f"\n[integration]\ndt = {dt!r}\nt_end = {steps * dt!r}\nscheme = rk4\n"


def _quarter_cfl_step(head: str) -> float:
    """A quarter of the advisory CFL step of the configured initial state."""
    from gnwave.io import build_bathymetry, build_initial_state, load_config
    from gnwave.timeloop import cfl_time_step

    cfg = load_config(head + "\n[integration]\ndt = 1.0\nt_end = 1.0\n")
    state = build_initial_state(cfg)
    return cfl_time_step(state, cfg.params, build_bathymetry(cfg)) / 4.0


class HumpWorkload(Workload):
    """A Gaussian surface hump over 0.3·cos(x/2)cos(y/2) on the 4π box, mollified."""

    def ini(self, seed: int, directory: str, steps: int | None = None) -> str:
        rng = random.Random(seed)
        amplitude = rng.uniform(0.35, 0.45)
        centre = (rng.uniform(0.25, 0.75) * BOX_2D, rng.uniform(0.25, 0.75) * BOX_2D)
        steps = self.steps if steps is None else steps
        dt = 0.02
        return f"""\
[model]
formulation = gn_v
epsilon = 0.2
beta = 0.4
mu = 0.5

[grid]
shape = 128 128
lengths = {BOX_2D!r} {BOX_2D!r}

[integration]
dt = {dt!r}
t_end = {steps * dt!r}
scheme = rk4

[mollifier]
iota = 0.04
profile = smooth_bump

[initial]
type = gaussian
amplitude = {amplitude!r}
width = 0.6
center = {centre[0]!r} {centre[1]!r}

[bathymetry]
type = fourier_modes
modes = 1 1 0.15 0 ; 1 -1 0.15 0
""" + OUTPUT.format(directory=directory)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SolitonWorkload(
            "soliton_1d", steps=500, nominal_s=4.8, kernel=((256,), 60, 0, 3.0), calibrate_every=10
        ),
        HumpWorkload(
            "hump_2d", steps=12, nominal_s=6.0, kernel=((128, 128), 25, 50, 14.0), calibrate_every=1
        ),
    )
}
