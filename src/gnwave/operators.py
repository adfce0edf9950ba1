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

which gives coercivity with constant ``h_star`` whenever the depth stays
above ``h_star > 0``. The inversion is a preconditioned conjugate-gradient
iteration on that form.

Everything here works on plain numpy arrays: a velocity is stacked as
``(dim, *shape)``, a scalar has the grid shape, and each operator returns a
new array.  Each operator takes ``(depth, u, …)``: the :class:`DepthState`
carries the bottom it stands on, so the grid and the slope β∇b come from it,
and an input whose shape does not match its grid raises
:class:`~gnwave.errors.GridMismatchError`.
"""
from __future__ import annotations

import collections
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


def _is_count(n, low: int) -> bool:
    """True for a Python or numpy integer ≥ ``low``; a bool is no count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= low


@dataclasses.dataclass(frozen=True)
class EllipticSolveConfig:
    """Settings for the conjugate-gradient inversion of 𝔗.

    ``max_iterations=None`` resolves to ten times the largest per-axis point
    count of the grid at solve time.
    """

    rel_tolerance: float = 1e-12
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tolerance <= 1e-6):
            raise ValidationError(
                f"rel_tolerance must lie in (0, 1e-6], got {self.rel_tolerance}"
            )
        n = self.max_iterations
        if n is not None and not _is_count(n, 1):
            raise ValidationError(f"max_iterations must be an integer >= 1, got {n!r}")

    def resolve_max_iterations(self, grid: PeriodicGrid) -> int:
        if self.max_iterations is not None:
            return int(self.max_iterations)
        return 10 * max(grid.shape)


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
      u − g that the in-step guess g made in the three latest steps, with
      that guess's weight.  A stage state is a smooth function of its step's
      start state, so this error traces a smooth curve over steps.  When the
      three entries start at ``step_start − k·dt`` (k = 1…3) to round-off and
      carry the weight of the current in-step guess, the guess is
      g + 3e₋₁ − 3e₋₂ + e₋₃, the quadratic extrapolation of the error added
      to the in-step guess.  Otherwise it is g: the first steps of a run, a
      step of another size (such as a shorter final step) and callers
      without stages.

    A solve that asks for no guess (a zero right-hand side, μ = 0) records
    no error: each recorded error pairs a solution with the guess asked for
    just before it.  Mutable by design; keep one session per concurrent run.
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
    _errors: dict[int, collections.deque] = dataclasses.field(
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
        """The in-step guess plus the quadratic extrapolation of its error over
        the same stage of the three previous steps."""
        if self._pending is None:
            return None
        (index, start, dt), weight, guess = self._pending
        history = self._errors.get(index)
        if history is None or len(history) < _STAGE_HISTORY:
            return None
        newest_first = list(reversed(history))
        for k, (e, t, w) in enumerate(newest_first, start=1):
            if not (
                e.shape == shape and _same(t, start - k * dt) and _same(w, weight)
            ):
                return None
        e1, e2, e3 = (e for e, _, _ in newest_first)
        return guess + (3.0 * (e1 - e2) + e3)

    def record(self, solution: np.ndarray, iterations: int) -> None:
        stored = solution.copy()
        pending, self._pending = self._pending, None
        if pending is not None:
            (index, start, _), weight, guess = pending
            history = self._errors.setdefault(
                index, collections.deque(maxlen=_STAGE_HISTORY)
            )
            history.append((stored - guess, start, weight))
        if self.time is None or self._last_time is None:
            self._previous = None
            self._last_time = self.time
        elif not _same(self.time, self._last_time):
            self._previous = (self.last_solution, self._last_time)
            self._last_time = self.time
        self.last_solution = stored
        self.solves += 1
        self.total_iterations += iterations


# In-step guess errors kept per stage index: a quadratic through three points.
# Measured over whole benchmark runs (iterations per stage solve; in-step
# guess alone 3.0 on soliton_1d and 8.5 on hump_2d): extrapolating the error
# linearly, quadratically or cubically gives 0.94, 1.31, 1.67 on the soliton
# and 6.0, 5.5, 4.9 on the hump.  Wider stencils help the hump and hurt the
# soliton, whose solves stop at rel_tolerance 1e-8 and whose solve error they
# amplify; the quadratic cuts both.
_STAGE_HISTORY = 3


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
    """Inverse of the constant-coefficient operator at mean depth.

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


def invert_frakT(
    depth: DepthState,
    v_rhs: np.ndarray,
    mu: float,
    cfg: EllipticSolveConfig | None = None,
    session: SolverSession | None = None,
) -> EllipticSolveResult:
    """Solve 𝔗[h, βb] u = v_rhs by conjugate gradients preconditioned with the
    flat-state inverse at the mean depth.

    Returns ``(u, iterations, residual)`` with the relative residual
    ``‖𝔗u - v_rhs‖ / ‖v_rhs‖`` guaranteed at most ``cfg.rel_tolerance``
    (:class:`EllipticSolveConfig` defaults when ``cfg`` is None).  A session
    provides the warm starts; pass one per simulation.
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

    precond = _flat_preconditioner(grid, depth.mean_depth, mu)

    guess = session.initial_guess(b.shape) if session is not None else None
    if guess is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        # CG updates x in place; the guess may be an array the session keeps
        x = guess.copy()
        r = b - _frakT(depth, x, None, mu)

    tol_abs = cfg.rel_tolerance * b_norm
    max_iter = cfg.resolve_max_iterations(grid)
    res = _norm(r)
    iterations = 0
    if res > tol_abs:
        # the search direction carries its spectrum along, so the matvec
        # needs no forward transform of its own
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
