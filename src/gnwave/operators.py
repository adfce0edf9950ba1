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
above ``h_min > 0``. The inversion is a preconditioned conjugate-gradient
iteration on that form.  The preconditioner is the exact inverse P̄ of 𝔗 at
the mean depth h̄ over a flat bottom, where scaling it adds iterations, and
s·P̄(s·r) with s = h̄/h over a bottom (Concus & Golub, 1973), where the
scaling cuts them (see :func:`_preconditioner`).

Everything here works on plain numpy arrays: a velocity is stacked as
``(dim, *shape)``, a scalar has the grid shape, and each operator returns a
new array.  Each operator takes ``(depth, u, …)``: the :class:`DepthState`
carries the bottom it stands on, so the grid and the slope β∇b come from it,
and an input whose shape does not match its grid raises
:class:`~gnwave.errors.GridMismatchError`.
"""
from __future__ import annotations

import dataclasses
import math
from functools import cached_property
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


@dataclasses.dataclass(frozen=True, eq=False)
class BathymetryState:
    """Bottom topography b and its amplitude β."""

    b: ScalarField
    beta: float

    def __post_init__(self) -> None:
        beta = float(self.beta)
        if not np.isfinite(beta) or beta < 0.0:
            raise ValidationError(f"beta must be a finite real >= 0, got {beta}")
        object.__setattr__(self, "beta", beta)

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


@dataclasses.dataclass(frozen=True, eq=False)
class DepthState:
    """Water column h = 1 + εζ − βb over the bottom ``bath``, with its
    dealiased powers h², h³.

    The depth must be finite and positive everywhere (non-cavitation), which
    is what makes 𝔗[h, βb] coercive; ``h_min`` is its minimum.  The grid and
    the slope β∇b are those of ``bath``.  ``h`` is kept as a read-only view
    of the given array; ``h2`` and ``h3`` are read-only arrays.
    """

    bath: BathymetryState
    h: np.ndarray
    h_min: float = dataclasses.field(init=False)
    h2: np.ndarray = dataclasses.field(init=False, repr=False)
    h3: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        harr = np.asarray(self.h, dtype=np.float64).view()
        if harr.shape != self.grid.shape:
            raise GridMismatchError(
                f"depth has shape {harr.shape}, expected {self.grid.shape}"
            )
        h_min = float(harr.min())
        if not (math.isfinite(h_min) and math.isfinite(float(harr.max()))):
            raise ValidationError("depth contains non-finite values")
        if h_min <= 0.0:
            raise CoercivityViolationError(
                f"depth must stay positive, got min h = {h_min}", h_min
            )
        harr.flags.writeable = False
        powers = self.grid.dealias(np.stack((harr * harr, harr * harr * harr)))
        powers.flags.writeable = False
        object.__setattr__(self, "h", harr)
        object.__setattr__(self, "h_min", h_min)
        object.__setattr__(self, "h2", powers[0])
        object.__setattr__(self, "h3", powers[1])

    @property
    def grid(self) -> PeriodicGrid:
        return self.bath.grid

    @property
    def beta_grad_b(self) -> np.ndarray | None:
        return self.bath.beta_grad_b

    @cached_property
    def mean_depth(self) -> float:
        return float(self.h.mean())


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


@dataclasses.dataclass
class SolverSession:
    """Warm-start cache for the elliptic solves of one simulation.

    The guess for a solve is built from what the caller has set:

    - With ``time`` set, the in-step guess is the linear extrapolation, to
      that time, of the two latest solutions at distinct times:
      u₀ + w·(u₀ − u₋₁), with weight w = (t − t₀)/(t₀ − t₋₁).  A solve at the
      time of the latest solution, a weight beyond ±2 (up to round-off) or a
      caller without a time gets the latest solution itself (w = 0).  Within
      a time step the two latest solutions include the stage just solved.
    - ``stage = (index, step_start, dt)`` (the time stepper sets it before
      each RK stage): the session keeps, per stage index, the error
      u − g that the in-step guess g made in the four latest steps, with
      that guess's weight.  A stage state is a smooth function of its step's
      start state, so this error traces a smooth curve over steps.  The
      stage guess engages when the three newest entries start at
      ``step_start − k·dt`` (k = 1…3) to round-off and carry the weight of
      the current in-step guess; it is then g + c, with c one of the
      extrapolations of the error to this step: e₁, 2e₁ − e₂,
      3e₁ − 3e₂ + e₃ and, when a fourth entry continues the pattern,
      4e₁ − 6e₂ + 4e₃ − e₄.  Otherwise the guess is g: the first steps of a
      run, a step of another size (such as a shorter final step) and
      callers without stages.

    Which extrapolation a stage takes is chosen from its own errors.  Each
    recorded solve of an engaged stage scores every candidate its history
    allowed by ‖e₀ − c‖², with e₀ the error its in-step guess made, and
    keeps each score as a running average (:data:`_SCORE_WEIGHT` on the
    newest value).  The next solve of that stage builds the candidate of
    lowest score among those its history allows, or the quadratic while none
    is scored.  The scores come from the Gram matrix of the kept errors, so
    they cost one inner product per kept error and no matvec.

    A solve that asks for no guess (a zero right-hand side, μ = 0) records
    no error: each recorded error pairs a solution with the guess asked for
    just before it.  The session also keeps the last few flat-state inverses
    P̄ it built (:meth:`flat_preconditioner`).  Mutable by design; keep one
    session per concurrent run.
    """

    last_solution: np.ndarray | None = None
    solves: int = 0
    total_iterations: int = 0
    time: float | None = None
    stage: tuple[int, float, float] | None = None
    _last_time: float | None = dataclasses.field(default=None, init=False, repr=False)
    _previous: tuple[np.ndarray, float] | None = dataclasses.field(
        default=None, init=False, repr=False
    )
    # (stage, weight, in-step guess) of the guess asked for last, until the
    # solution it belongs to is recorded
    _pending: tuple[tuple[int, float, float], float, np.ndarray] | None = (
        dataclasses.field(default=None, init=False, repr=False)
    )
    _errors: dict[int, _StageErrors] = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )
    _flat: dict[tuple[PeriodicGrid, float, float], Callable] = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )

    def initial_guess(self, shape: tuple[int, ...]) -> np.ndarray | None:
        self._pending = None
        last = self.last_solution
        if last is None or last.shape != shape:
            return None
        guess, weight = self._in_step_guess()
        if self.stage is not None:
            self._pending = (self.stage, weight, guess)
        corrected = self._stage_guess(shape)
        return guess if corrected is None else corrected

    def flat_preconditioner(
        self, grid: PeriodicGrid, mean_depth: float, mu: float
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """:func:`_flat_preconditioner`, reused while (grid, h̄, μ) repeat bit
        for bit.  Mass is conserved, so h̄ moves at most at round-off and a
        run sees only a few values; the oldest of more than
        :data:`_FLAT_INVERSES_KEPT` is dropped."""
        key = (grid, mean_depth, mu)
        found = self._flat.get(key)
        if found is None:
            if len(self._flat) == _FLAT_INVERSES_KEPT:
                del self._flat[next(iter(self._flat))]
            found = self._flat[key] = _flat_preconditioner(grid, mean_depth, mu)
        return found

    def _in_step_guess(self) -> tuple[np.ndarray, float]:
        """Line through the two latest solutions at distinct times, and its weight."""
        last = self.last_solution
        if self.time is None or self._previous is None:
            return last, 0.0
        previous, t_prev = self._previous
        if _same(self.time, self._last_time) or previous.shape != last.shape:
            return last, 0.0
        weight = (self.time - self._last_time) / (self._last_time - t_prev)
        # stage patterns need |weight| <= 2 (SSP-RK3's second stage sits on 2,
        # up to round-off); a larger one would amplify the difference of two
        # nearby solutions into a poor guess
        if abs(weight) > 2.0 and not _same(abs(weight), 2.0):
            return last, 0.0
        return last + weight * (last - previous), weight

    def _stage_guess(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """The in-step guess plus the chosen extrapolation of its error over
        the same stage of the previous steps, or None when the stage guess
        does not engage."""
        if self._pending is None:
            return None
        (index, start, dt), weight, guess = self._pending
        history = self._errors.get(index)
        if history is None:
            return None
        usable = history.usable(shape, start, dt, weight)
        if usable < _ENGAGE:
            return None
        return history.corrected(guess, usable)

    def record(self, solution: np.ndarray, iterations: int) -> None:
        stored = solution.copy()
        pending, self._pending = self._pending, None
        if pending is not None:
            (index, start, dt), weight, guess = pending
            history = self._errors.setdefault(index, _StageErrors())
            history.record(stored - guess, start, dt, weight)
        if self.time is None or self._last_time is None:
            self._previous = None
            self._last_time = self.time
        elif not _same(self.time, self._last_time):
            self._previous = (self.last_solution, self._last_time)
            self._last_time = self.time
        self.last_solution = stored
        self.solves += 1
        self.total_iterations += iterations


# The stage guess's candidate corrections, as coefficients of the newest
# errors e₁, e₂, …: the extrapolations of degree 0 to 3 in step time.
_EXTRAPOLATIONS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))
# e₀ − c for the candidate c of each row above is the backward difference of
# e₀, e₁, … of the row's length, so ‖e₀ − c‖² = Σ bᵢbⱼ⟨eᵢ, eⱼ⟩ with b the
# binomial coefficients of alternating sign: its Gram-matrix terms (i, j, ·),
# j ≥ i, the off-diagonal ones doubled.
_SCORE_TERMS = tuple(
    tuple(
        (i, j, (1.0 if i == j else 2.0) * b[i] * b[j])
        for i in range(len(b))
        for j in range(i, len(b))
    )
    for b in ((1.0,) + tuple(-a for a in row) for row in _EXTRAPOLATIONS)
)
# The stage guess engages with this many usable errors, and takes the
# extrapolation through all of them, the quadratic, until a candidate is scored.
_ENGAGE = 3
# Weight of the newest value in a candidate's running score.  Stage CG
# iterations of soliton_1d (2000 steps): 7381 (seed 7) and 7624 (seed 11) at
# 1/2, 6626 and 6792 at 1/5; on hump_2d both give 191 (seeds 7 and 11).
_SCORE_WEIGHT = 0.2
# Flat-state inverses a session keeps: a run sees 2 or 3 distinct h̄.
_FLAT_INVERSES_KEPT = 4


class _StageErrors:
    """The in-step guess errors of one stage index, newest first, each with
    its step start and in-step weight; their Gram matrix; and each
    extrapolation's running score, None until scored."""

    def __init__(self) -> None:
        self.errors: list[tuple[np.ndarray, float, float]] = []
        self.gram: list[list[float]] = []
        self.scores: list[float | None] = [None] * len(_EXTRAPOLATIONS)

    def usable(self, shape: tuple[int, ...], start: float, dt: float, weight: float) -> int:
        """How many of the newest errors, of ``shape``, start at start − k·dt
        (k = 1, 2, …) and were made by an in-step guess of ``weight``."""
        for k, (e, t, w) in enumerate(self.errors, start=1):
            if not (e.shape == shape and _same(t, start - k * dt) and _same(w, weight)):
                return k - 1
        return len(self.errors)

    def corrected(self, guess: np.ndarray, usable: int) -> np.ndarray:
        """``guess`` plus the lowest-scoring extrapolation that the ``usable``
        newest errors allow (the quadratic while none is scored)."""
        scored = [(s, n) for n, s in enumerate(self.scores[:usable]) if s is not None]
        order = min(scored)[1] if scored else _ENGAGE - 1
        coefficients = _EXTRAPOLATIONS[order]
        out = guess + coefficients[0] * self.errors[0][0]
        for a, (e, _, _) in zip(coefficients[1:], self.errors[1:]):
            out += a * e
        return out

    def record(self, e0: np.ndarray, start: float, dt: float, weight: float) -> None:
        """Score the extrapolations the history allowed by ‖e₀ − c‖², e₀ the
        error just made at ``start``, then keep e₀ as the newest error."""
        if self.errors and self.errors[0][0].shape != e0.shape:
            self.errors, self.gram = [], []
        dots = [_inner(e0, e) for e, _, _ in self.errors]
        # the Gram matrix of e₀ and the kept errors
        gram = [[_inner(e0, e0)] + dots] + [[d] + row for d, row in zip(dots, self.gram)]
        usable = self.usable(e0.shape, start, dt, weight)
        if usable >= _ENGAGE:
            for n, terms in enumerate(_SCORE_TERMS[:usable]):
                score = sum([c * gram[i][j] for i, j, c in terms])
                old = self.scores[n]
                self.scores[n] = score if old is None else old + _SCORE_WEIGHT * (score - old)
        kept = len(_EXTRAPOLATIONS)
        self.gram = [row[:kept] for row in gram[:kept]]
        self.errors = [(e0, start, weight)] + self.errors[: kept - 1]


def _same(a: float, b: float) -> bool:
    """Equal up to round-off: stage times are sums of steps, weights their ratios."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


class EllipticSolveResult(NamedTuple):
    u: np.ndarray
    iterations: int
    residual: float


# ------------------------------------------------------------------- kernels


def _div_and_slope(
    depth: DepthState, u: np.ndarray, u_spec: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The pair (d, g) = (P∇·u, P((β∇b)·u)) behind the good unknown, with P
    the dealiasing projection; g is None over a flat bottom.  ``u_spec`` is
    ``grid.rfft(u)``, formed here when None."""
    grid = depth.grid
    if u_spec is None:
        u_spec = grid.rfft(u)
    d = grid.irfft(grid.contract(grid.ik_dealiased, u_spec))
    bgb = depth.beta_grad_b
    if bgb is None:
        return d, None
    return d, grid.dealias(np.einsum("i...,i...->...", bgb, u))


def _h_times_T(depth: DepthState, u: np.ndarray, u_spec: np.ndarray | None) -> np.ndarray:
    """h·T[h, βb]u, the μ-independent dispersive part of the assembly.

    ``u_spec`` is ``grid.rfft(u)`` or None (see :func:`_div_and_slope`).
    With a bottom, the projection P being linear, this is
    ∇P(½h²g − ⅓h³d) + P(hg − ½h²d)·β∇b: two fields to transform forward.
    """
    grid = depth.grid
    h2d, h3d = depth.h2, depth.h3
    d, g = _div_and_slope(depth, u, u_spec)
    if g is None:
        return -(1.0 / 3.0) * grid.dealiased_gradient(h3d * d)
    spec = grid.rfft(
        np.stack((0.5 * h2d * g - (1.0 / 3.0) * h3d * d, depth.h * g - 0.5 * h2d * d))
    )
    out = grid.irfft(grid.ik_dealiased * spec[0])
    out += grid.irfft(grid.dealias_mask * spec[1]) * depth.beta_grad_b
    return out


def _frakT(depth: DepthState, u: np.ndarray, u_spec: np.ndarray | None, mu: float) -> np.ndarray:
    """𝔗[h, βb]u = h u + μ h T[h, βb]u, the one assembly behind
    :func:`apply_frakT` and the conjugate-gradient matvec."""
    out = depth.h * u
    if mu > 0.0:
        out += mu * _h_times_T(depth, u, u_spec)
    return out


# OpenBLAS runs ddot on a second thread above this many elements, and that
# thread then spins for about 0.1 s after each call; einsum uses no BLAS.
# Below it, ddot is the cheaper call.
_BLAS_THREADED_DOT = 10_000


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two arrays of one shape."""
    if a.size <= _BLAS_THREADED_DOT:
        return float(np.dot(a.ravel(), b.ravel()))
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


def _validate_mu(mu: float) -> float:
    mu = float(mu)
    if not np.isfinite(mu) or mu < 0.0:
        raise ValidationError(f"mu must be a finite real >= 0, got {mu}")
    return mu


# ------------------------------------------------------------------ operators


def apply_T(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """Dealiased evaluation of T[h, βb]u."""
    _check_velocity(depth, u)
    return _h_times_T(depth, u, None) / depth.h


def apply_frakT(depth: DepthState, u: np.ndarray, mu: float) -> np.ndarray:
    """𝔗[h, βb]u = h u + μ h T[h, βb]u, the forward elliptic operator."""
    _check_velocity(depth, u)
    return _frakT(depth, u, None, _validate_mu(mu))


def _flat_preconditioner(
    grid: PeriodicGrid, mean_depth: float, mu: float
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Inverse of the constant-coefficient operator at mean depth, the
    preconditioner over a flat bottom (see :func:`_preconditioner`).

    Per mode, 𝔗 at flat depth h̄ has the symbol h̄(I + μ h̄² k kᵀ / 3); its
    inverse is (I - μ h̄² k kᵀ / (3 + μ h̄² |k|²)) / h̄.  The returned map gives
    the preconditioned array together with its spectrum.
    """
    c = mu * mean_depth * mean_depth / 3.0
    # apply the dispersive correction only where the operator carries it:
    # outside the dealias mask 𝔗 acts as the mass h·Id
    weight = np.where(grid.dealias_mask, c / (1.0 - c * grid.laplacian_multiplier), 0.0)
    if grid.dim == 1:
        # k kᵀ is the scalar |k|², so the inverse is one diagonal multiplier
        symbol = (1.0 + weight * grid.laplacian_multiplier) / mean_depth

        def apply(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            out_spec = grid.rfft(r) * symbol
            return grid.irfft(out_spec), out_spec

        return apply

    ik = grid.ik  # k kᵀ = −(ik)(ik)ᵀ

    def apply(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        specs = grid.rfft(r)
        out_spec = (specs + ik * (weight * grid.contract(ik, specs))) / mean_depth
        return grid.irfft(out_spec), out_spec

    return apply


def _preconditioner(
    depth: DepthState, mu: float, session: SolverSession | None = None
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]:
    """CG's preconditioner for 𝔗[h, βb]: the flat inverse P̄ at the mean depth
    h̄ over a flat bottom, and over a bottom r ↦ s·P̄(s·r) with s = h̄/h.
    A ``session`` supplies P̄ from the ones it keeps.

    Both maps are symmetric positive definite.  The scaled one returns no
    spectrum, so CG's matvec transforms the search direction itself.  Over a
    flat bottom the scaling would cost iterations, 11 258 against 10 598 in a
    soliton_1d run, so it is kept for a bottom, where a 128² hump_2d run's
    stage solves took 216 instead of 278 (both with the quadratic stage
    guess alone).
    """
    build = _flat_preconditioner if session is None else session.flat_preconditioner
    flat = build(depth.grid, depth.mean_depth, mu)
    if depth.beta_grad_b is None:
        return flat
    s = depth.mean_depth / depth.h
    scaled = np.empty((depth.grid.dim,) + depth.grid.shape)

    def apply(r: np.ndarray) -> tuple[np.ndarray, None]:
        z, _ = flat(np.multiply(s, r, out=scaled))
        z *= s
        return z, None

    return apply


def invert_frakT(
    depth: DepthState,
    v_rhs: np.ndarray,
    mu: float,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> EllipticSolveResult:
    """Solve 𝔗[h, βb] u = v_rhs by preconditioned conjugate gradients: the
    flat-state inverse at the mean depth over a flat bottom, scaled by h̄/h on
    both sides over a bottom (:func:`_preconditioner`).

    Returns ``(u, iterations, residual)``: ``residual``, CG's updated residual
    over ‖v_rhs‖, is at most ``cfg.rel_tolerance`` (:class:`EllipticSolveConfig`
    defaults when ``cfg`` is None), and the true ‖𝔗u - v_rhs‖ / ‖v_rhs‖ agrees
    with it to about the round-off of one 𝔗 application.  A session provides
    the warm starts; pass one per simulation.
    """
    grid = _check_velocity(depth, v_rhs)
    mu = _validate_mu(mu)
    if cfg is None:
        cfg = EllipticSolveConfig()

    b = v_rhs
    b_norm = _norm(b)
    if b_norm == 0.0:
        return EllipticSolveResult(np.zeros(b.shape), 0, 0.0)

    if mu == 0.0:
        u = b / depth.h
        if session is not None:
            session.record(u, 0)
        return EllipticSolveResult(u, 0, 0.0)

    precond = _preconditioner(depth, mu, session)

    guess = session.initial_guess(b.shape) if session is not None else None
    if guess is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        # CG updates x in place; the guess may be an array the session keeps
        x = guess.copy()
        r = b - _frakT(depth, x, None, mu)

    tol_abs = cfg.rel_tolerance * b_norm
    max_iter = _CG_ITERATIONS_PER_POINT * max(grid.shape)
    res = _norm(r)
    iterations = 0
    if res > tol_abs:
        # the search direction carries its spectrum along when the
        # preconditioner gives one, so the matvec needs no forward transform
        # of its own
        z, z_spec = precond(r)
        p, p_spec = z.copy(), z_spec
        rho = _inner(r, z)
        for iterations in range(1, max_iter + 1):
            q = _frakT(depth, p, p_spec, mu)
            pq = _inner(p, q)
            if pq <= 0.0:
                raise CoercivityViolationError(
                    f"conjugate gradients met a non-positive curvature "
                    f"direction (⟨p, 𝔗p⟩ = {pq}); depth state is not coercive",
                    depth.h_min,
                )
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            res = _norm(r)
            if res <= tol_abs:
                break
            z, z_spec = precond(r)
            rho_new = _inner(r, z)
            p = z + (rho_new / rho) * p
            if z_spec is not None:
                p_spec = z_spec + (rho_new / rho) * p_spec
            rho = rho_new
        else:
            raise NonConvergenceError(
                f"elliptic solve did not reach tolerance {cfg.rel_tolerance} in "
                f"{max_iter} iterations (relative residual {res / b_norm:.3e})",
                max_iter,
                res / b_norm,
            )

    if session is not None:
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
    mu = _validate_mu(mu)
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
    adv = np.einsum("i...,i...->...", u, grad_d)
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
    w2 = grid.dealias(np.einsum("i...,i...->...", u, grid.gradient(g)))
    inner = _q_inner(grid, u, d)
    out = 0.5 * grid.dealiased_gradient(h2d * w2) / h
    out -= 0.5 * (grid.dealias(h2d * inner) / h) * bgb
    out += w2 * bgb
    return grid.dealias(out)


def _pressure_terms(
    depth: DepthState, u: np.ndarray, flat_part: bool = True, bottom_part: bool = True
) -> np.ndarray:
    """R (when ``flat_part``) plus R_b (when ``bottom_part`` and the bottom
    is not flat), before the final dealiasing projection.  The two gradients
    share one transform pair: (u/h)·∇(h³ ∇·u / 3 − h² (β∇b)·u / 2)."""
    grid = depth.grid
    h, h2d = depth.h, depth.h2
    d, g = _div_and_slope(depth, u)
    flux = (1.0 / 3.0) * depth.h3 * d if flat_part else 0.0
    out = 0.5 * h2d * d * d if flat_part else 0.0
    if bottom_part and g is not None:
        flux = flux - 0.5 * h2d * g
        out = out - 0.5 * (h * g * d + g * g)
    return out + np.einsum("i...,i...->...", u, grid.dealiased_gradient(flux)) / h


def apply_R(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """R[h, u] = (u/3h)·∇(h³ ∇·u) + ½ h² (∇·u)², dealiased."""
    grid = _check_velocity(depth, u)
    return grid.dealias(_pressure_terms(depth, u, bottom_part=False))


def apply_Rb(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """R_b = -½ ( (u/h)·∇(h² (β∇b)·u) + h ((β∇b)·u) ∇·u + ((β∇b)·u)² )."""
    grid = _check_velocity(depth, u)
    if depth.beta_grad_b is None:
        return np.zeros(grid.shape)
    return grid.dealias(_pressure_terms(depth, u, flat_part=False))


def good_unknown_w(depth: DepthState, u: np.ndarray) -> np.ndarray:
    """Vertical-velocity unknown w = -h ∇·u + (β∇b)·u."""
    grid = _check_velocity(depth, u)
    d, g = _div_and_slope(depth, u)
    out = -grid.dealias(depth.h * d)
    if g is not None:
        out += g
    return out
