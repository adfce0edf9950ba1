"""Depth-dependent operator calculus of the fully nonlinear dispersive model.

The composed operator acting on velocity is::

    𝔗[h, β b] u = h u + μ h T[h, β b] u

with::

    T[h, β b] u = -(1/3h) ∇(h³ ∇·u)
                  + (1/2h) ( ∇(h² (β∇b)·u) - h² (β∇b) ∇·u )
                  + β² (∇b·u) ∇b

Discretely, every pointwise product is projected below the 1/3 dealiasing
cutoff and the divergence entering the operator is projected as well. With
that placement the assembly is the Riesz representation of the symmetric
bilinear form::

    ⟨𝔗u, w⟩ = ∫ h u·w + μ/3 h³ d_u d_w - μ/2 h² (g_u d_w + g_w d_u) + μ h g_u g_w

(d = dealiased ∇·u, g = dealiased (β∇b)·u), so symmetry holds to round-off
for arbitrary fields and the quadratic form is a sum of squares::

    ⟨𝔗u, u⟩ = ∫ h|u|² + μ/12 h³ d² + μ/4 h (h d - 2 g)²,

which gives coercivity with constant ``h_min`` whenever the depth stays
above ``h_min > 0``. The inversion is a conjugate-gradient iteration on
that form, preconditioned by the flat-state inverse scaled by h̄/h on both
sides, or, for an RK-stage solve over a flat bottom, by the flat-state
inverse itself, which takes fewer iterations there (:func:`_preconditioner`).

Everything here works on plain numpy arrays: a velocity is stacked as
``(dim, *shape)``, a scalar has the grid shape, and each operator returns a
new array.  Their kernels work in the grid's :attr:`~PeriodicGrid.solve_work`,
so a solve over a bottom allocates no grid-sized array per iteration.  Each
operator takes ``(depth, u, …)``: the :class:`DepthState`
carries the bottom it stands on, so the grid and the slope β∇b come from it,
and an input whose shape does not match its grid raises
:class:`~gnwave.errors.GridMismatchError`.
"""
from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CoercivityViolationError,
    GridMismatchError,
    NonConvergenceError,
    ValidationError,
)
from .grid import PeriodicGrid, ScalarField

__all__ = [
    "BathymetryState",
    "DepthState",
    "EllipticSolveConfig",
    "SolverSession",
    "EllipticSolveResult",
    "apply_T",
    "apply_frakT",
    "invert_frakT",
    "dh_frakT",
    "apply_Q",
    "apply_Qb",
    "apply_R",
    "apply_Rb",
    "good_unknown_w",
]


# --------------------------------------------------------------------- states


def _nonnegative(name: str, value: float) -> float:
    """``value`` as a float, refused unless it is finite and >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be a finite real >= 0, got {value}")
    return value


@dataclasses.dataclass(frozen=True, eq=False)
class BathymetryState:
    """Bottom topography b and its amplitude β, with what the solves over
    it reuse: the slope β∇b and the flat-state inverses P̄."""

    b: ScalarField
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _nonnegative("beta", self.beta))

    @classmethod
    def flat(cls, grid: PeriodicGrid) -> "BathymetryState":
        return cls(ScalarField.zeros(grid), 0.0)

    @property
    def grid(self) -> PeriodicGrid:
        return self.b.grid

    @cached_property
    def beta_grad_b(self) -> np.ndarray | None:
        """β ∇b as a stacked read-only array, or None when the bottom is flat."""
        if self.beta == 0.0:
            return None
        grad_b = self.grid.gradient(self.b.data)
        if float(np.max(np.abs(grad_b))) == 0.0:
            return None
        out = self.beta * grad_b
        out.flags.writeable = False
        return out

    @cached_property
    def rest_depth(self) -> "DepthState":
        """The still water column 1 − βb over this bottom."""
        return DepthState(self, 1.0 - self.beta * self.b.data)

    @cached_property
    def flat_inverse(self) -> Callable[[float, float], Callable]:
        """(h̄, μ) ↦ :func:`_flat_preconditioner` on this grid, kept for the
        :data:`_FLAT_INVERSES_KEPT` latest keys.  P̄ depends on its key alone,
        and mass is conserved, so h̄ moves at most at round-off and the runs
        and records over one bottom see only a few values."""
        return lru_cache(maxsize=_FLAT_INVERSES_KEPT)(
            lambda mean_depth, mu: _flat_preconditioner(self.grid, mean_depth, mu)
        )


@dataclasses.dataclass(frozen=True, eq=False)
class DepthState:
    """Water column h = 1 + εζ − βb over the bottom ``bath``, with its
    dealiased powers h², h³.

    The depth must be finite and positive everywhere (non-cavitation), which
    is what makes 𝔗[h, βb] coercive; ``h_min`` is its minimum.  The grid and
    the slope β∇b are those of ``bath``.  ``h`` is kept as a read-only view
    of the given array; ``h2`` and ``h3`` are read-only arrays, the dealiased
    rows of one stacked transform of h·h and h·h·h.  ``mean_depth`` h̄ is
    the sum of h over the point count.  Every field is set on construction.
    """

    bath: BathymetryState
    h: np.ndarray
    grid: PeriodicGrid = dataclasses.field(init=False, repr=False)
    beta_grad_b: np.ndarray | None = dataclasses.field(init=False, repr=False)
    h_min: float = dataclasses.field(init=False)
    mean_depth: float = dataclasses.field(init=False)
    h2: np.ndarray = dataclasses.field(init=False, repr=False)
    h3: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        grid = self.bath.grid
        harr = np.asarray(self.h, dtype=np.float64).view()
        if harr.shape != grid.shape:
            raise GridMismatchError(f"depth has shape {harr.shape}, expected {grid.shape}")
        # NaN and ±inf reach the minimum or the sum, as does a sum past the float range
        h_min, total = float(harr.min()), float(harr.sum())
        if not (math.isfinite(h_min) and math.isfinite(total)):
            raise ValidationError("depth contains non-finite values")
        if h_min <= 0.0:
            raise CoercivityViolationError(
                f"depth must stay positive, got min h = {h_min}", h_min
            )
        harr.flags.writeable = False
        powers = np.empty((2,) + harr.shape)
        np.multiply(harr, harr, out=powers[0])
        np.multiply(powers[0], harr, out=powers[1])
        powers = grid.dealias(powers)
        powers.flags.writeable = False
        object.__setattr__(self, "h", harr)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "beta_grad_b", self.bath.beta_grad_b)
        object.__setattr__(self, "h_min", h_min)
        object.__setattr__(self, "mean_depth", total / harr.size)
        object.__setattr__(self, "h2", powers[0])
        object.__setattr__(self, "h3", powers[1])

    @cached_property
    def half_h2(self) -> np.ndarray:
        """½h² as ``0.5 * h2``: numpy evaluates ``0.5 * h2 * f`` as
        ``(0.5 * h2) * f``, so ``half_h2 * f`` has its bits."""
        return 0.5 * self.h2

    @cached_property
    def third_h3(self) -> np.ndarray:
        """⅓h³ as ``(1.0 / 3.0) * h3``, the first product of
        ``(1.0 / 3.0) * h3 * f``."""
        return (1.0 / 3.0) * self.h3


# CG's iteration cap, per point of the grid's longest axis
_CG_ITERATIONS_PER_POINT = 10


@dataclasses.dataclass(frozen=True)
class EllipticSolveConfig:
    """Settings for the conjugate-gradient inversion of 𝔗."""

    rel_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not (1e-14 <= self.rel_tolerance <= 1e-6):
            raise ValidationError(
                f"rel_tolerance must lie in [1e-14, 1e-6], got {self.rel_tolerance}"
            )


class SolverSession:
    """Warm starts and CG counts of the elliptic solves of one simulation.

    The guess for a solve is built from ``stage``, which the time stepper
    sets before each RK stage to ``(index, step, offset, dt)``: the step
    number and the tableau's offset place the stage at offset·dt into it.
    It stays None outside a stage; it also picks the preconditioner of the
    solve (:func:`_preconditioner`).  A session made with ``start`` takes it as
    its latest solution, so a solve outside a stage starts there; it is read,
    never written.  A record makes the Hamiltonian's solve and that of u in a
    fresh session of its own, and each term of its symmetrizer energy in a
    session started at u (:func:`~gnwave.diagnostics.energy_F`).  No float
    time enters: the time between two places ``(step, offset, dt)`` is a sum
    of offset × dt products (:func:`_elapsed`), so at one dt the weights are
    exact ratios of offsets and every match below is exact.

    - The in-step guess is the linear extrapolation, to the stage, of the
      two latest solutions at distinct places: u₀ + w·(u₀ − u₋₁), with
      weight w the time from u₀ to the stage over that from u₋₁ to u₀ (RK4:
      0, 1, 0, 1; SSP-RK3: −1, 2, −½).  A solve at no time from the latest
      solution, a weight beyond ±2 or a solve without a stage gets the
      latest solution itself (w = 0).  Within a time step the two latest
      solutions include the stage just solved.
    - Per stage index, the session keeps the error u − g that the in-step
      guess g made in the four latest steps, with that step's number and dt
      and that guess's weight.  A stage state is a smooth function of its
      step's start state, so this error traces a smooth curve over steps.
      The stage guess engages when the three newest entries were made at
      steps ``step − k`` (k = 1…3), with the current dt bit for bit and the
      weight of the current in-step guess; it is then g + c, with c one of
      the extrapolations of the error to this step: e₁, 2e₁ − e₂,
      3e₁ − 3e₂ + e₃ and, when a fourth entry continues the pattern,
      4e₁ − 6e₂ + 4e₃ − e₄.  Otherwise the guess is g: the first steps of
      a run, a step of another size (such as a shorter final step) and
      solves without a stage.

    Which extrapolation a stage takes is chosen from its own errors.  Each
    recorded solve of an engaged stage scores every candidate its history
    allowed by ‖e₀ − c‖², with e₀ the error its in-step guess made, and
    keeps each score as a running average (:data:`_SCORE_WEIGHT` on the
    newest value).  The next solve of that stage builds the candidate of
    lowest score among those its history allows, or the quadratic while none
    is scored.  The history keeps the backward differences ∇ᵏe₁ of its
    newest error: a new e₀ gives the next ones in at most four subtractions,
    candidate n scores ‖∇ⁿ⁺¹e₀‖² in one inner product and no matvec, and is
    built as Σ_{k≤n} ∇ᵏe₁, Newton's form of the same extrapolation.

    A stage solve counts its stage's usable errors once, in
    :meth:`initial_guess`; the count stays pending with the in-step guess
    until the solution is recorded, and chooses both the guess and the
    candidates that the solution's error scores.

    A solve that asks for no guess (a zero right-hand side, μ = 0) records
    no error: each recorded error pairs a solution with the guess asked for
    just before it.  A solve given no session starts cold in a fresh one.
    Mutable by design; keep one session per concurrent run; ``__slots__``
    refuses a write to any other attribute.
    """

    __slots__ = ("last_solution", "solves", "total_iterations", "stage",
                 "_last_place", "_previous", "_pending", "_errors")

    def __init__(self, start: np.ndarray | None = None) -> None:
        self.last_solution: np.ndarray | None = start
        self.solves = 0
        self.total_iterations = 0
        self.stage: tuple[int, int, float, float] | None = None
        # the (step, offset, dt) of the latest solution; the one before it
        self._last_place: tuple[int, float, float] | None = None
        self._previous: tuple[np.ndarray, tuple[int, float, float]] | None = None
        # (stage errors, in-step guess, step, dt, weight, usable count) of the
        # guess asked for last, until the solution it belongs to is recorded
        self._pending: tuple[_StageErrors, np.ndarray, int, float, float, int] | None = None
        self._errors: defaultdict[int, _StageErrors] = defaultdict(_StageErrors)

    def initial_guess(self, shape: tuple[int, ...]) -> np.ndarray | None:
        self._pending = None
        last = self.last_solution
        if last is None or last.shape != shape:
            return None
        guess, weight = self._in_step_guess()
        if self.stage is None:
            return guess
        index, step, _, dt = self.stage
        history = self._errors[index]
        usable = history.usable(shape, step, dt, weight)
        self._pending = (history, guess, step, dt, weight, usable)
        return history.corrected(guess, usable) if usable >= _ENGAGE else guess

    def _in_step_guess(self) -> tuple[np.ndarray, float]:
        """Line through the two latest solutions at distinct places, and its weight."""
        last = self.last_solution
        if self.stage is None or self._previous is None:
            return last, 0.0
        previous, previous_place = self._previous
        ahead = _elapsed(self._last_place, self.stage[1:])
        if ahead == 0.0 or previous.shape != last.shape:
            return last, 0.0
        weight = ahead / _elapsed(previous_place, self._last_place)
        # stage patterns need |weight| <= 2 (SSP-RK3's second stage sits on
        # 2); a larger one would amplify the difference of two nearby
        # solutions into a poor guess
        if abs(weight) > 2.0:
            return last, 0.0
        return last + weight * (last - previous), weight

    def keeps(self, guess: np.ndarray) -> bool:
        """Whether ``guess`` is an array the session reads again: its latest
        solution or the pending in-step guess.  A corrected one is fresh."""
        pending = self._pending
        return guess is self.last_solution or (pending is not None and guess is pending[1])

    def record(self, solution: np.ndarray, iterations: int, guessed: bool = True) -> None:
        """Take ``solution`` as the latest; file its error from the pending
        in-step guess unless the solve asked for none (``guessed`` False)."""
        stored = solution.copy()
        pending, self._pending = self._pending, None
        if pending is not None and guessed:
            history, guess, step, dt, weight, usable = pending
            history.record(stored - guess, step, dt, weight, usable)
        place = None if self.stage is None else self.stage[1:]
        if place is None or self._last_place is None:
            self._previous = None
            self._last_place = place
        elif _elapsed(self._last_place, place) != 0.0:
            self._previous = (self.last_solution, self._last_place)
            self._last_place = place
        self.last_solution = stored
        self.solves += 1
        self.total_iterations += iterations


def _elapsed(a: tuple[int, float, float], b: tuple[int, float, float]) -> float:
    """Time from place ``a`` to place ``b``, each ``(step, offset, dt)``: the
    rest of a's step and any whole steps between, at a's dt, then b's offset
    into its own step.  The end of a step is the start of the next at
    exactly 0, and for RK4 and SSP-RK3 offsets at one dt every result is an
    exact multiple of dt/2."""
    (step_a, offset_a, dt_a), (step_b, offset_b, dt_b) = a, b
    return (step_b - step_a - offset_a) * dt_a + offset_b * dt_b


# The stage guess's candidate corrections, as coefficients of the newest
# errors e₁, e₂, …: the extrapolations of degree 0 to 3 in step time.  Row n
# is Σ_{k≤n} ∇ᵏe₁ (Newton's form, as :class:`_StageErrors` builds it).
_EXTRAPOLATIONS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))
# The stage guess engages with this many usable errors, and takes the
# extrapolation through all of them, the quadratic, until a candidate is scored.
_ENGAGE = 3
# Weight of the newest value in a candidate's running score: of ½ and ⅕, the
# one that gave fewer stage iterations on soliton_1d and as few on hump_2d
# (CHANGES.md has the counts, BENCH_stage_adaptive_order.json the runs).
_SCORE_WEIGHT = 0.2
# Flat-state inverses a bottom keeps: a run sees 2 or 3 distinct h̄.
_FLAT_INVERSES_KEPT = 4


class _StageErrors:
    """The in-step guess errors of one stage index, newest first, kept as
    the backward differences ``differences[k]`` = ∇ᵏe₁ (k = 0…3) of the
    newest error e₁, with each error's step number, dt and in-step weight
    in ``places``; and each extrapolation's running score, None until
    scored.  The session counts the usable errors once per solve, and
    :meth:`corrected` and :meth:`record` both take that count."""

    def __init__(self) -> None:
        self.differences: list[np.ndarray] = []
        self.places: list[tuple[int, float, float]] = []
        self.scores: list[float | None] = [None] * len(_EXTRAPOLATIONS)

    def usable(self, shape: tuple[int, ...], step: int, dt: float, weight: float) -> int:
        """How many of the newest errors, of ``shape``, were made at steps
        step − k (k = 1, 2, …) of size ``dt`` by an in-step guess of
        ``weight``.  Every comparison is exact."""
        if self.differences and self.differences[0].shape != shape:
            return 0
        for k, (s, d, w) in enumerate(self.places, start=1):
            if not (s == step - k and d == dt and w == weight):
                return k - 1
        return len(self.places)

    def corrected(self, guess: np.ndarray, usable: int) -> np.ndarray:
        """``guess`` plus Σ_{k≤n} ∇ᵏe₁, n the lowest-scoring candidate that the
        ``usable`` newest errors allow (the quadratic while none is scored)."""
        scored = [(s, n) for n, s in enumerate(self.scores[:usable]) if s is not None]
        order = min(scored)[1] if scored else _ENGAGE - 1
        out = guess + self.differences[0]
        for d in self.differences[1 : order + 1]:
            out += d
        return out

    def record(self, e0: np.ndarray, step: int, dt: float, weight: float, usable: int) -> None:
        """Score the extrapolations that the ``usable`` newest errors allowed
        by ‖e₀ − c‖² = ‖∇ⁿ⁺¹e₀‖², e₀ the error just made at ``step``, then
        keep the differences of e₀.  It takes e₀ over: later records write
        differences over it."""
        if self.differences and self.differences[0].shape != e0.shape:
            self.differences, self.places = [], []
        # ∇ᵏe₀ = ∇ᵏ⁻¹e₀ − ∇ᵏ⁻¹e₁, written over the ∇ᵏ⁻¹e₁ that nothing reads after
        new = [e0]
        for d in self.differences:
            new.append(np.subtract(new[-1], d, out=d))
        if usable >= _ENGAGE:
            for n, d in enumerate(new[1 : usable + 1]):
                score, old = _inner(d, d), self.scores[n]
                self.scores[n] = score if old is None else old + _SCORE_WEIGHT * (score - old)
        kept = len(_EXTRAPOLATIONS)
        self.differences = new[:kept]
        self.places = [(step, dt, weight)] + self.places[: kept - 1]


class EllipticSolveResult(NamedTuple):
    u: np.ndarray
    iterations: int
    residual: float


# ------------------------------------------------------------------- kernels


def _div_and_slope(depth: DepthState, u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The pair (d, g) = (P∇·u, P((β∇b)·u)) behind the good unknown, with P
    the dealiasing projection; g is None over a flat bottom.  d and g are
    the rows of the grid's ``solve_work.pairs[1]``: read them before the
    next kernel."""
    grid = depth.grid
    work = grid.solve_work
    specs = grid.rfft(u, out=work.spectra[0, : grid.dim])
    spec = grid.contract(grid.ik_dealiased, specs, out=work.spectra[1, 0])
    d = grid.irfft(spec, out=work.pairs[1, 0])
    bgb = depth.beta_grad_b
    if bgb is None:
        return d, None
    g = work.pairs[1, 1]
    # P((β∇b)·u), as grid.dealias forms it; einsum, one pass, is about a
    # third faster here than grid.contract at 128², with the same bits
    spec = grid.rfft(np.einsum("i...,i...->...", bgb, u, out=g), out=spec)
    return d, grid.irfft(grid.dealias_spectrum(spec), out=g)


def _h_times_T(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """h·T[h, βb]u, the μ-independent dispersive part of the assembly.

    With a bottom, the projection P being linear, this is
    ∇P(½h²g − ⅓h³d) + P(hg − ½h²d)·β∇b: two fields to transform forward.
    Over a bottom the result is the first ``dim`` rows of the grid's
    ``solve_work.pairs[0]``, and ``pairs[1]`` is free again when it returns.
    """
    grid = depth.grid
    d, g = _div_and_slope(depth, u)
    if g is None:
        return -(1.0 / 3.0) * grid.dealiased_gradient(depth.h3 * d)
    # each product lands in a row that nothing reads any more
    work = grid.solve_work
    fields = work.pairs[0]
    half_h2 = depth.half_h2
    np.multiply(half_h2, g, out=fields[0])
    fields[0] -= np.multiply(depth.third_h3, d, out=fields[1])
    np.multiply(depth.h, g, out=fields[1])
    fields[1] -= np.multiply(half_h2, d, out=d)
    spec = grid.rfft(fields, out=work.spectra[0])
    # P(hg − ½h²d)·β∇b first, then ∇P(½h²g − ⅓h³d) in the spectra that frees
    slope = grid.irfft(grid.dealias_spectrum(spec[1]), out=d)
    slope_term = np.multiply(slope, depth.beta_grad_b, out=fields[: grid.dim])
    ik = grid.ik_dealiased
    for axis in reversed(range(grid.dim)):
        np.multiply(ik[axis], spec[0], out=spec[axis])
    # ∇P(…) + P(…)·β∇b, added the other way round: IEEE addition commutes
    slope_term += grid.irfft(spec[: grid.dim], out=work.pairs[1, : grid.dim])
    return slope_term


def _frakT(
    depth: DepthState, u: np.ndarray, mu: float, out: np.ndarray | None = None
) -> np.ndarray:
    """𝔗[h, βb]u = h u + μ h T[h, βb]u, the one assembly behind
    :func:`apply_frakT` and the conjugate-gradient matvec, into ``out`` when
    given and else into a fresh array."""
    if mu == 0.0:
        return np.multiply(depth.h, u, out=out)
    t = _h_times_T(depth, u)
    np.multiply(mu, t, out=t)
    out = np.multiply(depth.h, u, out=out)
    out += t
    return out


# OpenBLAS runs ddot on a second thread above this many elements, and that
# thread then spins for about 0.1 s after each call; einsum uses no BLAS.
# Below it, ddot is the cheaper call.
_BLAS_THREADED_DOT = 10_000


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two arrays of one shape.  ``ndarray.dot``
    is np.dot's ddot without its dispatch wrapper."""
    if a.size <= _BLAS_THREADED_DOT:
        return float(a.ravel().dot(b.ravel()))
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_inner(a, a))


def _check_velocity(depth: DepthState, u: np.ndarray) -> PeriodicGrid:
    grid = depth.grid
    if u.shape != (grid.dim,) + grid.shape:
        raise GridMismatchError(
            f"velocity has shape {u.shape}, expected {(grid.dim,) + grid.shape}"
        )
    return grid


# ------------------------------------------------------------------ operators


def apply_T(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """Dealiased evaluation of T[h, βb]u."""
    _check_velocity(depth, u)
    return _h_times_T(depth, u) / depth.h


def apply_frakT(depth: DepthState, u: np.ndarray, mu: float) -> np.ndarray:
    """𝔗[h, βb]u = h u + μ h T[h, βb]u, the forward elliptic operator."""
    _check_velocity(depth, u)
    return _frakT(depth, u, _nonnegative("mu", mu))


def _flat_preconditioner(
    grid: PeriodicGrid, mean_depth: float, mu: float
) -> Callable[..., np.ndarray]:
    """Inverse P̄ of the constant-coefficient operator at mean depth, the
    map that every preconditioner of :func:`_preconditioner` applies.

    Per mode, 𝔗 at flat depth h̄ has the symbol h̄(I + μ h̄² k kᵀ / 3); its
    inverse is (I - μ h̄² k kᵀ / (3 + μ h̄² |k|²)) / h̄.
    """
    c = mu * mean_depth * mean_depth / 3.0
    # apply the dispersive correction only where the operator carries it:
    # outside the dealias mask 𝔗 acts as the mass h·Id
    weight = np.where(grid.dealias_mask, c / (1.0 - c * grid.laplacian_multiplier), 0.0)
    if grid.dim == 1:
        # k kᵀ is the scalar |k|², so the inverse is one diagonal multiplier
        symbol = (1.0 + weight * grid.laplacian_multiplier) / mean_depth

        def flat(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            return grid.irfft(grid.rfft(r) * symbol, out=out)

        return flat

    ik = grid.ik  # k kᵀ = −(ik)(ik)ᵀ
    # stored complex, as numpy casts it in a product with a spectrum, so that
    # product needs no cast buffer
    weight = weight.astype(np.complex128)

    def flat(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # (specs + ik (weight · contract(ik, specs))) / h̄, one axis at a time
        work = grid.solve_work.spectra
        specs = grid.rfft(r, out=work[0])
        w = grid.contract(ik, specs, out=work[1, 0])
        np.multiply(weight, w, out=w)
        for axis in range(grid.dim):
            specs[axis] += np.multiply(ik[axis], w, out=work[1, 1])
        specs /= mean_depth
        return grid.irfft(specs, out=out)

    return flat


def _preconditioner(depth: DepthState, mu: float, *, stage: bool) -> Callable[..., np.ndarray]:
    """CG's preconditioner for 𝔗[h, βb]: r ↦ s·P̄(s·r) with s = h̄/h
    (Concus & Golub, 1973), P̄ the flat inverse at the mean depth h̄; for a
    ``stage`` solve over a flat bottom, P̄ itself.  The bottom supplies P̄
    from the ones it keeps (:attr:`BathymetryState.flat_inverse`).

    Both maps are symmetric positive definite, and the choice between them
    is by iteration count alone.  A stage solve over a flat bottom starts
    from a guess that leaves it about one iteration of work, and takes more
    iterations with the scaling; every other solve, the cold ones and the
    records' warm ones included, takes fewer with it (counts:
    BENCH_bottom_preconditioner.json, BENCH_record_preconditioner.json and
    BENCH_precond_protocol.json).

    Each map returns a fresh array, or with ``out`` writes its result there.
    """
    flat = depth.bath.flat_inverse(depth.mean_depth, mu)
    if stage and depth.beta_grad_b is None:
        return flat
    s = depth.mean_depth / depth.h
    scaled = depth.grid.solve_work.pairs[0, : depth.grid.dim]

    def precond(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z = flat(np.multiply(s, r, out=scaled), out=out)
        return np.multiply(s, z, out=z)

    return precond


def invert_frakT(
    depth: DepthState,
    v_rhs: np.ndarray,
    mu: float,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> EllipticSolveResult:
    """Solve 𝔗[h, βb] u = v_rhs by preconditioned conjugate gradients: the
    flat-state inverse at the mean depth, scaled by h̄/h on both sides unless
    the ``session`` is in an RK stage over a flat bottom (:func:`_preconditioner`).

    Returns ``(u, iterations, residual)``: ``residual``, CG's updated residual
    over ‖v_rhs‖, is at most ``cfg.rel_tolerance`` (:class:`EllipticSolveConfig`
    defaults when ``cfg`` is None), and the true ‖𝔗u - v_rhs‖ / ‖v_rhs‖ agrees
    with it to about the round-off of one 𝔗 application.  The ``session``
    provides the warm start, from its ``stage``; pass one per simulation.
    Without one the solve starts cold in a session of its own.
    """
    grid = _check_velocity(depth, v_rhs)
    mu = _nonnegative("mu", mu)
    if cfg is None:
        cfg = EllipticSolveConfig()
    if session is None:
        session = SolverSession()

    b = v_rhs
    b_norm = _norm(b)
    if not math.isfinite(b_norm):
        # CG's stop test ``res > tol`` is False for NaN: it would return its
        # guess as converged
        raise ValidationError(f"right-hand side has non-finite norm {b_norm}")
    if b_norm == 0.0:
        return EllipticSolveResult(np.zeros(b.shape), 0, 0.0)

    if mu == 0.0:
        u = b / depth.h
        session.record(u, 0, guessed=False)
        return EllipticSolveResult(u, 0, 0.0)

    precond = _preconditioner(depth, mu, stage=session.stage is not None)
    # the updates' products and the matvec's result: grid work arrays, so an
    # iteration allocates nothing of grid size
    pairs = grid.solve_work.pairs
    product, q = pairs[0, : grid.dim], pairs[1, : grid.dim]

    guess = session.initial_guess(b.shape)
    if guess is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        # CG updates x in place: copy the guess if the session keeps it
        x = guess.copy() if session.keeps(guess) else guess
        r = b - _frakT(depth, x, mu, out=q)

    tol_abs = cfg.rel_tolerance * b_norm
    max_iter = _CG_ITERATIONS_PER_POINT * max(grid.shape)
    res = _norm(r)
    iterations = 0
    if res > tol_abs:
        z = precond(r, out=np.empty_like(r))
        p = z.copy()
        rho = _inner(r, z)
        for iterations in range(1, max_iter + 1):
            _frakT(depth, p, mu, out=q)
            pq = _inner(p, q)
            if pq <= 0.0:
                raise CoercivityViolationError(
                    f"conjugate gradients met a non-positive curvature "
                    f"direction (⟨p, 𝔗p⟩ = {pq}); depth state is not coercive",
                    depth.h_min,
                )
            alpha = rho / pq
            x += np.multiply(alpha, p, out=product)
            r -= np.multiply(alpha, q, out=product)
            res = _norm(r)
            if res <= tol_abs:
                break
            z = precond(r, out=z)
            rho_new = _inner(r, z)
            beta = rho_new / rho
            # p ← z + βp in place: the same bits, as addition commutes
            np.add(np.multiply(beta, p, out=p), z, out=p)
            rho = rho_new
        else:
            raise NonConvergenceError(
                f"elliptic solve did not reach tolerance {cfg.rel_tolerance} in "
                f"{max_iter} iterations (relative residual {res / b_norm:.3e})",
                max_iter,
                res / b_norm,
            )

    session.record(x, iterations)
    return EllipticSolveResult(x, iterations, res / b_norm)


def dh_frakT(depth: DepthState, f: np.ndarray, u: np.ndarray, mu: float) -> np.ndarray:
    """Derivative of h ↦ 𝔗[h, βb]u in the direction f (exact Fréchet form).

    Differentiating every h-occurrence of the assembly gives::

        d𝔗(f, u) = f u - μ ∇(h² f ∇·u) + μ ∇(f h (β∇b)·u)
                   - μ f h (β∇b) ∇·u + μ f ((β∇b)·u) (β∇b)

    The last term has no h left in front, which is why it is easy to drop;
    the second-order finite-difference check only converges with it present.
    """
    grid = _check_velocity(depth, u)
    if f.shape != grid.shape:
        raise GridMismatchError(f"direction has shape {f.shape}, expected {grid.shape}")
    mu = _nonnegative("mu", mu)
    h = depth.h
    out = grid.dealias(f * u)
    if mu == 0.0:
        return out
    d, g = _div_and_slope(depth, u)
    out -= mu * grid.dealiased_gradient(h * h * f * d)
    if g is not None:
        bgb = depth.beta_grad_b
        out += mu * grid.dealiased_gradient(f * h * g)
        out -= mu * grid.dealias(f * h * d) * bgb
        out += mu * grid.dealias(f * g) * bgb
    return out


def apply_Q(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """Quadratic velocity operator Q[h, u] = -(1/3h) ∇(h³ ((u·∇)(∇·u) - (∇·u)²))."""
    grid = _check_velocity(depth, u)
    inner = _q_inner(grid, u, grid.dealiased_divergence(u))
    return -(1.0 / 3.0) * grid.dealiased_gradient(depth.h3 * inner) / depth.h


def _q_inner(grid: PeriodicGrid, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(u·∇)d - d², dealiased, for d = P∇·u."""
    grad_d = grid.gradient(d)
    adv = grid.contract(u, grad_d)
    return grid.dealias(adv - d * d)


def apply_Qb(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """Bathymetric partner of Q:

    Q_b = (β/2h) ( ∇(h² (u·∇)²b) - h² ((u·∇)(∇·u) - (∇·u)²) ∇b )
          + β² ((u·∇)²b) ∇b
    """
    grid = _check_velocity(depth, u)
    bgb = depth.beta_grad_b
    if bgb is None:
        return np.zeros(u.shape)
    h = depth.h
    h2d = depth.h2
    d, g = _div_and_slope(depth, u)
    # β (u·∇)² b = P(u·∇g), built from β∇b so the β powers come out right
    w2 = grid.dealias(grid.contract(u, grid.gradient(g)))
    inner = _q_inner(grid, u, d)
    out = 0.5 * grid.dealiased_gradient(h2d * w2) / h
    out -= 0.5 * (grid.dealias(h2d * inner) / h) * bgb
    out += w2 * bgb
    return grid.dealias(out)


def _pressure_terms(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """R + R_b before the final dealiasing projection.  The two gradients
    share one transform pair: (u/h)·∇(h³ ∇·u / 3 − h² (β∇b)·u / 2)."""
    grid = depth.grid
    h, h2d = depth.h, depth.h2
    d, g = _div_and_slope(depth, u)
    flux = (1.0 / 3.0) * depth.h3 * d
    out = 0.5 * h2d * d * d
    if g is not None:
        flux = flux - 0.5 * h2d * g
        out = out - 0.5 * (h * g * d + g * g)
    return out + grid.contract(u, grid.dealiased_gradient(flux)) / h


def apply_R(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """R[h, u] = (u/3h)·∇(h³ ∇·u) + ½ h² (∇·u)², dealiased: the pressure
    terms of the same column over a flat bottom."""
    grid = _check_velocity(depth, u)
    return grid.dealias(_pressure_terms(DepthState(BathymetryState.flat(grid), depth.h), u))


def apply_Rb(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """R_b = -½ ( (u/h)·∇(h² (β∇b)·u) + h ((β∇b)·u) ∇·u + ((β∇b)·u)² )."""
    grid = _check_velocity(depth, u)
    if depth.beta_grad_b is None:
        return np.zeros(grid.shape)
    return grid.dealias(_pressure_terms(depth, u)) - apply_R(depth, u)


def good_unknown_w(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """Vertical-velocity unknown w = -h ∇·u + (β∇b)·u."""
    grid = _check_velocity(depth, u)
    d, g = _div_and_slope(depth, u)
    out = -grid.dealias(depth.h * d)
    if g is not None:
        out += g
    return out
