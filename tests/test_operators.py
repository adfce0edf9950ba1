"""Operator calculus tests: symbolic oracles, quadratic form, CG inversion."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    band_limited_scalar,
    band_limited_vector,
    frakT_oracle,
    h_times_T_oracle,
    invert_frakT_oracle,
    smooth_depth,
)
from gnwave import operators
from gnwave.errors import (
    CoercivityViolationError,
    GridMismatchError,
    NonConvergenceError,
    ValidationError,
)
from gnwave.grid import PeriodicGrid, ScalarField
from gnwave.operators import (
    BathymetryState,
    DepthState,
    EllipticSolveConfig,
    SolverSession,
    apply_frakT,
    apply_Q,
    apply_Qb,
    apply_R,
    apply_Rb,
    apply_T,
    dh_frakT,
    good_unknown_w,
    invert_frakT,
)

MU = 0.9


def grid1(n=64) -> PeriodicGrid:
    return PeriodicGrid((n,), (2.0 * np.pi,))


def grid2(n=32) -> PeriodicGrid:
    return PeriodicGrid((n, n), (2.0 * np.pi, 2.0 * np.pi))


# ------------------------------------------------------------- symbolic oracle
#
# A 1D state with band-limited depth, bottom and velocity; every operator is
# differentiated symbolically and compared on the grid. All products stay far
# below the dealiasing cutoff, so agreement is to round-off.

X = sp.symbols("x", real=True)
H_SYM = 1 + sp.Rational(1, 10) * sp.sin(X) + sp.Rational(1, 20) * sp.cos(2 * X)
B_SYM = sp.Rational(3, 20) * sp.cos(X)
U_SYM = sp.Rational(1, 5) * sp.sin(2 * X) + sp.Rational(1, 10) * sp.cos(X)
F_SYM = sp.Rational(1, 4) * sp.cos(3 * X) + sp.Rational(1, 10)
BETA = sp.Rational(3, 10)


def _lambdify(expr):
    return sp.lambdify(X, expr, "numpy")


@pytest.fixture(scope="module")
def symbolic_state():
    g = grid1(64)
    x = g.coords[0]
    h = _lambdify(H_SYM)(x)
    b = _lambdify(B_SYM)(x)
    u = _lambdify(U_SYM)(x)
    bath = BathymetryState(ScalarField(g, b), float(BETA))
    depth = DepthState(bath, h)
    vel = u[None, :]
    return g, depth, vel


def _sym_oracles():
    h, b, u, beta = H_SYM, B_SYM, U_SYM, BETA
    d = sp.diff(u, X)
    gb = beta * sp.diff(b, X)
    T = (
        -sp.diff(h**3 * d, X) / (3 * h)
        + (sp.diff(h**2 * gb * u, X) - h**2 * gb * d) / (2 * h)
        + gb**2 * u
    )
    Q = -sp.diff(h**3 * (u * sp.diff(d, X) - d**2), X) / (3 * h)
    udb2 = u * sp.diff(u * sp.diff(b, X), X)  # (u·∇)² b
    Qb = (
        beta / (2 * h) * (sp.diff(h**2 * udb2, X) - h**2 * (u * sp.diff(d, X) - d**2) * sp.diff(b, X))
        + beta**2 * udb2 * sp.diff(b, X)
    )
    R = u / (3 * h) * sp.diff(h**3 * d, X) + sp.Rational(1, 2) * h**2 * d**2
    Rb = -sp.Rational(1, 2) * (
        u / h * sp.diff(h**2 * gb * u, X) + h * gb * u * d + (gb * u) ** 2
    )
    w = -h * d + gb * u
    f = F_SYM
    dT = (
        f * u
        - MU * sp.diff(h**2 * f * d, X)
        + MU * sp.diff(f * h * gb * u, X)
        - MU * f * h * gb * d
        + MU * f * (gb * u) * gb
    )
    return {"T": T, "Q": Q, "Qb": Qb, "R": R, "Rb": Rb, "w": w, "dT": dT}


@pytest.fixture(scope="module")
def oracle_values(symbolic_state):
    g = symbolic_state[0]
    x = g.coords[0]
    return {name: _lambdify(expr)(x) for name, expr in _sym_oracles().items()}


class TestSymbolicOracle:
    def test_apply_T(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        got = apply_T(depth, vel)[0]
        assert np.max(np.abs(got - oracle_values["T"])) < 1e-11

    def test_apply_frakT_matches_composition(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        frak = apply_frakT(depth, vel, MU)[0]
        exact = depth.h * (vel[0] + MU * oracle_values["T"])
        assert np.max(np.abs(frak - exact)) < 1e-11

    def test_apply_Q(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        got = apply_Q(depth, vel)[0]
        assert np.max(np.abs(got - oracle_values["Q"])) < 1e-11

    def test_apply_Qb(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        got = apply_Qb(depth, vel)[0]
        assert np.max(np.abs(got - oracle_values["Qb"])) < 1e-11

    def test_apply_R(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        got = apply_R(depth, vel)
        assert np.max(np.abs(got - oracle_values["R"])) < 1e-11

    def test_apply_Rb(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        got = apply_Rb(depth, vel)
        assert np.max(np.abs(got - oracle_values["Rb"])) < 1e-11

    def test_good_unknown_w(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        got = good_unknown_w(depth, vel)
        assert np.max(np.abs(got - oracle_values["w"])) < 1e-11

    def test_dh_frakT(self, symbolic_state, oracle_values):
        g, depth, vel = symbolic_state
        f = _lambdify(F_SYM)(g.coords[0])
        got = dh_frakT(depth, f, vel, MU)[0]
        assert np.max(np.abs(got - oracle_values["dT"])) < 1e-11


class TestTrivialCases:
    def test_T_of_zero(self):
        g = grid2(16)
        depth = smooth_depth(BathymetryState.flat(g), np.random.default_rng(0))
        out = apply_T(depth, np.zeros((g.dim,) + g.shape))
        assert np.max(np.abs(out)) == 0.0

    def test_flat_single_mode_multiplier(self):
        g = grid1(64)
        depth = DepthState(BathymetryState.flat(g), np.ones(g.shape))
        k = 3.0
        u = np.cos(k * g.coords[0])[None, :]
        Tu = apply_T(depth, u)
        assert np.max(np.abs(Tu - (k**2 / 3.0) * u)) < 1e-12
        frak = apply_frakT(depth, u, MU)
        assert np.max(np.abs(frak - (1 + MU * k**2 / 3.0) * u)) < 1e-12

    def test_flat_single_mode_2d(self):
        g = grid2(32)
        depth = DepthState(BathymetryState.flat(g), np.ones(g.shape))
        x, y = g.coords
        # gradient of a plane wave: u ∥ k, so T u = (|k|²/3) u
        u = g.gradient(np.cos(2 * x + 3 * y))
        Tu = apply_T(depth, u)
        assert np.max(np.abs(Tu - (13.0 / 3.0) * u)) < 1e-11

    def test_constant_bottom_has_no_slope(self):
        """A bottom at β > 0 whose b is constant has no slope β∇b, so its
        solves take the flat-bottom kernels."""
        g = grid2(16)
        assert BathymetryState(ScalarField(g, np.full(g.shape, 0.3)), 0.5).beta_grad_b is None

    def test_mu_zero_frakT_is_mass(self):
        g = grid1(32)
        rng = np.random.default_rng(1)
        depth = smooth_depth(BathymetryState.flat(g), rng)
        u = band_limited_vector(g, rng)
        out = apply_frakT(depth, u, 0.0)
        assert np.allclose(out, depth.h * u, atol=1e-14)

    def test_Qb_flat_bottom_zero(self):
        g = grid1(32)
        rng = np.random.default_rng(2)
        depth = smooth_depth(BathymetryState.flat(g), rng)
        u = band_limited_vector(g, rng)
        out = apply_Qb(depth, u)
        assert np.max(np.abs(out)) == 0.0
        rb = apply_Rb(depth, u)
        assert np.max(np.abs(rb)) == 0.0

    def test_Q_constant_velocity_zero(self):
        g = grid1(32)
        depth = smooth_depth(BathymetryState.flat(g), np.random.default_rng(3))
        u = np.full((1,) + g.shape, 0.7)
        assert np.max(np.abs(apply_Q(depth, u))) < 1e-14

    def test_R_of_zero(self):
        g = grid1(32)
        depth = smooth_depth(BathymetryState.flat(g), np.random.default_rng(4))
        assert np.max(np.abs(apply_R(depth, np.zeros((g.dim,) + g.shape)))) == 0.0

    def test_w_gradient_flow_flat_bottom(self):
        g = grid2(32)
        depth = smooth_depth(BathymetryState.flat(g), np.random.default_rng(5), max_mode=2)
        u = g.gradient(np.cos(g.coords[0]))
        w = good_unknown_w(depth, u)
        expected = -g.dealias(depth.h * g.divergence(u))
        assert np.max(np.abs(w - expected)) < 1e-13

    def test_dh_mu_zero(self):
        g = grid1(32)
        rng = np.random.default_rng(6)
        depth = smooth_depth(BathymetryState.flat(g), rng)
        f = band_limited_scalar(g, rng, 3)
        u = band_limited_vector(g, rng, 3)
        out = dh_frakT(depth, f, u, 0.0)
        assert np.max(np.abs(out - f * u)) < 1e-13


def _random_setup(seed: int, n: int = 48, beta: float = 0.3):
    g = grid1(n)
    rng = np.random.default_rng(seed)
    b = band_limited_scalar(g, rng, 2, 0.15)
    bath = BathymetryState(ScalarField(g, b), beta)
    h = 1.0 + band_limited_scalar(g, rng, 3, 0.15) - beta * b
    depth = DepthState(bath, h)
    return g, depth, rng


def _cg_iterations(
    depth: DepthState, b: np.ndarray, mu: float, rel_tolerance: float, precond=None
) -> int:
    """Iterations of conjugate gradients on 𝔗x = b from zero (only the
    residual is carried), preconditioned by ``precond`` when it is given."""

    def apply(r):
        return r if precond is None else precond(r)

    r = b.copy()
    z = apply(r)
    p = z.copy()
    rho = float(np.vdot(r, z))
    tol = rel_tolerance * np.sqrt(float(np.vdot(b, b)))
    for iterations in range(1, 100 * b.size):
        q = apply_frakT(depth, p, mu)
        r -= (rho / float(np.vdot(p, q))) * q
        if np.sqrt(float(np.vdot(r, r))) <= tol:
            return iterations
        z = apply(r)
        rho_new = float(np.vdot(r, z))
        p = z + (rho_new / rho) * p
        rho = rho_new
    raise AssertionError("CG did not converge")


def _bottom_setup_2d(seed: int = 13):
    """A 32² depth over a band-limited bottom at β = 0.4."""
    g = grid2(32)
    rng = np.random.default_rng(seed)
    b = band_limited_scalar(g, rng, 2, 0.1)
    bath = BathymetryState(ScalarField(g, b), 0.4)
    depth = DepthState(bath, 1.0 + band_limited_scalar(g, rng, 3, 0.15))
    return g, depth, rng


class TestQuadraticForm:
    def test_identity_by_quadrature(self):
        g, depth, rng = _random_setup(7)
        u = band_limited_vector(g, rng, max_mode=5)
        lhs = g.inner(apply_frakT(depth, u, MU), u)
        h = depth.h
        d = g.divergence(u)
        gb = depth.beta_grad_b
        gdot = np.einsum("i...,i...->...", gb, u)
        rhs = g.integrate(
            h * np.einsum("i...,i...->...", u, u)
            + (MU / 12.0) * h**3 * d**2
            + (MU / 4.0) * h * (h * d - 2.0 * gdot) ** 2
        )
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_symmetry(self):
        g, depth, rng = _random_setup(8)
        u1 = band_limited_vector(g, rng, 5)
        u2 = band_limited_vector(g, rng, 5)
        a12 = g.inner(apply_frakT(depth, u1, MU), u2)
        a21 = g.inner(apply_frakT(depth, u2, MU), u1)
        assert abs(a12 - a21) <= 1e-12 * g.norm_l2(u1) * g.norm_l2(u2)

    def test_coercivity_bounds(self):
        g, depth, rng = _random_setup(9)
        u = band_limited_vector(g, rng, 5)
        quad = g.inner(apply_frakT(depth, u, MU), u)
        l2 = g.inner(u, u)
        div2 = g.inner(g.divergence(u), g.divergence(u))
        slack = 1e-10 * abs(quad)
        assert quad >= depth.h_min * l2 - slack
        assert quad >= (MU / 12.0) * depth.h_min**3 * div2 - slack

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_symmetry_property(self, seed):
        g, depth, rng = _random_setup(seed)
        u1 = band_limited_vector(g, rng, 4)
        u2 = band_limited_vector(g, rng, 4)
        a12 = g.inner(apply_frakT(depth, u1, MU), u2)
        a21 = g.inner(apply_frakT(depth, u2, MU), u1)
        assert abs(a12 - a21) <= 1e-12 * g.norm_l2(u1) * g.norm_l2(u2)


class TestInversion:
    def test_zero_rhs(self):
        g, depth, _ = _random_setup(10)
        u, iters, res = invert_frakT(depth, np.zeros((g.dim,) + g.shape), MU)
        assert np.max(np.abs(u)) == 0.0
        assert iters == 0 and res == 0.0

    def test_flat_single_mode(self):
        g = grid1(64)
        depth = DepthState(BathymetryState.flat(g), np.ones(g.shape))
        k = 4.0
        v = np.sin(k * g.coords[0])[None, :]
        u, iters, res = invert_frakT(depth, v, MU)
        assert np.max(np.abs(u - v / (1 + MU * k**2 / 3.0))) < 1e-10

    def test_round_trip(self):
        g, depth, rng = _random_setup(11)
        v = band_limited_vector(g, rng, 5)
        cfg = EllipticSolveConfig(rel_tolerance=1e-12)
        u, iters, res = invert_frakT(depth, v, MU, cfg)
        back = apply_frakT(depth, u, MU)
        err = g.norm_l2(back - v)
        assert err <= 10.0 * cfg.rel_tolerance * g.norm_l2(v)
        assert res <= cfg.rel_tolerance

    def test_saint_venant_degeneration(self):
        g, depth, rng = _random_setup(12)
        v = band_limited_vector(g, rng, 5)
        u, iters, res = invert_frakT(depth, v, 0.0)
        assert np.max(np.abs(u - v / depth.h)) < 1e-13

    def test_2d_round_trip_with_bathymetry(self):
        g, depth, rng = _bottom_setup_2d()
        v = band_limited_vector(g, rng, 4)
        u, iters, res = invert_frakT(depth, v, 0.5)
        back = apply_frakT(depth, u, 0.5)
        assert g.norm_l2(back - v) <= 1e-11 * g.norm_l2(v)

    def test_bottom_preconditioner_beats_flat_inverse(self):
        """Over a bottom, CG with the depth-scaled map takes fewer iterations
        than CG with the flat-state inverse alone, to the same tolerance."""
        g, depth, rng = _bottom_setup_2d()
        v = band_limited_vector(g, rng, 4)
        cfg = EllipticSolveConfig()
        _, iters, _ = invert_frakT(depth, v, 0.5, cfg)
        flat = operators._flat_preconditioner(g, depth.mean_depth, 0.5)
        assert iters < _cg_iterations(depth, v, 0.5, cfg.rel_tolerance, flat)

    def test_preconditioner_helps(self):
        """The flat-state preconditioner takes fewer iterations than plain CG
        over 𝔗 to the same tolerance."""
        g, depth, rng = _random_setup(14)
        v = band_limited_vector(g, rng, 5)
        cfg = EllipticSolveConfig()
        _, it_pc, _ = invert_frakT(depth, v, MU, cfg)
        assert it_pc < _cg_iterations(depth, v, MU, cfg.rel_tolerance)

    def test_warm_start_session(self):
        g, depth, rng = _random_setup(15)
        v = band_limited_vector(g, rng, 5)
        session = SolverSession()
        _, first, _ = invert_frakT(depth, v, MU, session=session)
        _, second, _ = invert_frakT(depth, v, MU, session=session)
        assert second == 0
        assert session.solves == 2
        assert session.last_solution is not None

    def test_session_refuses_unknown_attributes(self):
        """A write to a name the session does not have, such as ``time``,
        which the ``stage`` tuple replaced, raises instead of being ignored."""
        session = SolverSession()
        with pytest.raises(AttributeError):
            session.time = 1.0
        session.stage = (0, 1, 0.0, 1.0)

    def test_session_extrapolates_in_time(self):
        """With stages set, the guess is the line through the last two solutions
        at distinct places; the end of a step and the start of the next are
        one place."""
        session = SolverSession()
        first, second = np.full((1, 8), 1.0), np.full((1, 8), 3.0)
        session.stage = (0, 1, 0.5, 1.0)
        session.record(first, 1)
        assert session.initial_guess((1, 8)) is session.last_solution
        session.stage = (0, 1, 1.0, 1.0)
        session.record(second, 1)
        session.stage = (0, 2, 0.5, 1.0)
        assert np.array_equal(session.initial_guess((1, 8)), np.full((1, 8), 5.0))
        session.stage = (0, 1, 1.0, 1.0)  # the place of the last solution: no extrapolation
        assert session.initial_guess((1, 8)) is session.last_solution
        session.stage = (0, 2, 0.0, 1.0)  # the start of the next step: the same time
        assert session.initial_guess((1, 8)) is session.last_solution
        session.stage = None
        assert session.initial_guess((1, 8)) is session.last_solution
        assert session.initial_guess((1, 9)) is None

    def test_session_does_not_extrapolate_far(self):
        """Two solutions close in time give no guess far beyond them."""
        session = SolverSession()
        for offset, value in ((0.0, 1.0), (1.0, 2.0)):
            session.stage = (0, 1, offset, 1e-9)
            session.record(np.full((1, 8), value), 1)
        session.stage = (0, 2, 1.0, 1.0)
        assert session.initial_guess((1, 8)) is session.last_solution

    @staticmethod
    def _solve_stages(session, steps, dt, error, stages=(0, 1)):
        """Solve every stage of the steps numbered ``steps`` as a solver would:
        ask for a guess, then record a solution.  Each solution is the in-step
        guess plus ``error(step, index)``; stage ``index`` sits at offset
        ``index/2``.  Stage index −1 is never solved, so its guess is the
        in-step one."""
        for step in steps:
            for index in stages:
                session.stage = (-1, step, 0.5 * index, dt)
                in_step = session.initial_guess((1, 8))
                session.stage = (index, step, 0.5 * index, dt)
                session.initial_guess((1, 8))
                base = 0.0 if in_step is None else in_step
                session.record(base + error(step, index), 1)

    @staticmethod
    def _polynomial(seed, degree):
        """A polynomial of ``degree`` in the step time 0.1·step, per stage index."""
        coeffs = np.random.default_rng(seed).standard_normal((3, degree + 1, 1, 8))
        return lambda step, index: sum(c * (0.1 * step) ** p for p, c in enumerate(coeffs[index]))

    @staticmethod
    def _quadratic(seed):
        return TestInversion._polynomial(seed, 2)

    def test_session_continues_stage_errors_over_steps(self):
        """An in-step guess error quadratic in step time is continued to round-off."""
        error = self._quadratic(5)
        dt = 0.1
        session = SolverSession()
        self._solve_stages(session, range(20, 26), dt, error)
        step = 26
        for index in (0, 1):
            session.stage = (-1, step, 0.5 * index, dt)
            in_step = session.initial_guess((1, 8))
            session.stage = (index, step, 0.5 * index, dt)
            guess = session.initial_guess((1, 8))
            exact = in_step + error(step, index)
            assert np.max(np.abs(guess - exact)) <= 1e-11 * np.max(np.abs(exact))
            session.record(exact, 1)

    def test_session_stage_guess_falls_back(self):
        """Without the three previous steps at this dt, measured against an
        in-step guess of the current weight, the guess is the in-step one."""
        error = self._quadratic(6)
        dt = 0.1

        def guesses(steps, stage, offset=0.5):
            index, step, size = stage
            session = SolverSession()
            self._solve_stages(session, steps, dt, error)
            # the earlier stages of this step
            self._solve_stages(session, [step], size, error, stages=range(index))
            session.stage = (index, step, offset * index, size)
            with_stage = session.initial_guess((1, 8))
            session.stage = (-1, step, offset * index, size)
            return with_stage, session.initial_guess((1, 8))

        even = [0, 1, 2, 3]
        corrected, in_step = guesses(even, (0, 4, dt))
        assert not np.array_equal(corrected, in_step)
        corrected, in_step = guesses(even, (1, 4, dt))
        assert not np.array_equal(corrected, in_step)
        for steps, stage, offset in (
            (even, (0, 4, 0.5 * dt), 0.5),  # a shorter step
            (even, (0, 4, 2.0 * dt), 0.5),  # a longer step
            (even, (0, 5, dt), 0.5),  # a step missing from the history
            ([0, 1, 3, 4], (0, 5, dt), 0.5),  # a gap in the history's step numbers
            (even[1:], (0, 4, dt), 0.5),  # the first solve has no guess: two errors
            (even, (2, 4, dt), 0.5),  # a stage index never solved
            (even, (1, 4, dt), 0.25),  # an in-step guess of weight 1/2, not 1
        ):
            with_stage, in_step = guesses(steps, stage, offset)
            assert np.array_equal(with_stage, in_step)

    def test_session_pairs_each_error_with_its_own_guess(self):
        """A solve that asks for no guess records no error: a μ = 0 solve
        between two stages leaves its stage's history without that step, and a
        zero right-hand side leaves the session as it was."""
        g = grid1(8)
        depth = DepthState(BathymetryState.flat(g), np.ones(g.shape))
        error = self._quadratic(7)
        dt = 0.1
        session = SolverSession()
        self._solve_stages(session, range(4), dt, error, stages=(0, 1, 2))

        def solve_stage(index, step, rhs, mu):
            session.stage = (index, step, 0.5 * index, dt)
            invert_frakT(depth, rhs, mu, session=session)

        rhs = np.random.default_rng(8).standard_normal((1, 8))
        solve_stage(0, 4, rhs, MU)
        solves = session.solves
        solve_stage(1, 4, np.zeros((1, 8)), MU)
        assert session.solves == solves
        solve_stage(1, 4, rhs, 0.0)
        assert session.solves == solves + 1
        solve_stage(2, 4, rhs, MU)

        after = 5
        for index, engaged in ((0, True), (1, False), (2, True)):
            session.stage = (-1, after, 0.5 * index, dt)
            in_step = session.initial_guess((1, 8))
            session.stage = (index, after, 0.5 * index, dt)
            guess = session.initial_guess((1, 8))
            assert np.array_equal(guess, in_step) != engaged, index
            session.record(in_step + error(after, index), 1)

    def test_stage_errors_restart_on_another_grid(self):
        """A stage history whose errors were made on one grid starts afresh
        when its session moves to a grid of another shape."""
        session = SolverSession()
        rng = np.random.default_rng(12)
        for shape, steps in (((1, 8), range(3)), ((1, 16), range(3, 6))):
            for step in steps:
                session.stage = (0, step, 0.0, 0.1)
                session.initial_guess(shape)
                session.record(rng.standard_normal(shape), 1)
        history = session._errors[0]
        assert [d.shape for d in history.differences] == [(1, 16), (1, 16)]
        assert [step for step, _, _ in history.places] == [5, 4]

    def _continued(self, error, steps):
        """The largest relative miss of the guess for each stage of each step
        from ``steps`` on, when every solution is the in-step guess plus
        ``error``; the steps are numbered from 20 and are 0.1 long."""
        dt, first = 0.1, 20
        session = SolverSession()
        self._solve_stages(session, range(first, first + steps), dt, error)
        misses = []
        for step in range(first + steps, first + steps + 4):
            for index in (0, 1):
                session.stage = (-1, step, 0.5 * index, dt)
                in_step = session.initial_guess((1, 8))
                session.stage = (index, step, 0.5 * index, dt)
                guess = session.initial_guess((1, 8))
                exact = in_step + error(step, index)
                misses.append(np.max(np.abs(guess - exact)) / np.max(np.abs(exact)))
                session.record(exact, 1)
        return max(misses)

    def test_session_continues_cubic_stage_errors(self):
        """An in-step guess error cubic in step time is continued to round-off
        once four errors exist and the cubic has been scored; the quadratic
        alone misses it."""
        error = self._polynomial(9, 3)
        assert self._continued(error, 7) <= 1e-11
        # step 4 is the first engaged one, and it takes the quadratic
        assert self._continued(error, 4) > 1e-6

    def test_session_continues_linear_stage_errors(self):
        """An in-step guess error linear in step time is continued to round-off
        from the first engaged step on, whichever extrapolation is chosen."""
        assert self._continued(self._polynomial(10, 1), 4) <= 1e-11

    def test_stage_scores_follow_the_gram_matrix(self, monkeypatch):
        """Each recorded error scores the extrapolations its history allows by
        ‖e₀ − c‖², as a running average, from one inner product per scored
        candidate; the history keeps four errors and a broken chain or a
        shorter step scores nothing."""
        rng = np.random.default_rng(11)
        dt = 0.1
        schedule = (
            [(n, dt) for n in range(7)]  # rotates past four errors
            + [(n, dt) for n in range(8, 12)]  # a step missing
            + [(12, 0.5 * dt)]  # a shorter step
            + [(n, dt) for n in range(13, 18)]
        )
        inner = operators._inner
        calls = []
        monkeypatch.setattr(
            operators, "_inner", lambda a, b: calls.append(1) or inner(a, b)
        )
        history = operators._StageErrors()
        kept, expected, scored = [], [None] * 4, 0
        for step, size in schedule:
            e0 = rng.standard_normal((2, 16))
            usable = 0
            while usable < len(kept) and kept[usable][1:] == (step - usable - 1, size):
                usable += 1
            if usable >= 3:
                scored += 1
                for n, coefficients in enumerate(operators._EXTRAPOLATIONS[:usable]):
                    c = sum(a * e for a, (e, _, _) in zip(coefficients, kept))
                    direct = float(np.sum((e0 - c) ** 2))
                    old = expected[n]
                    expected[n] = direct if old is None else (
                        old + operators._SCORE_WEIGHT * (direct - old)
                    )
            calls.clear()
            # record keeps the array it is given and writes later differences over it
            history.record(e0.copy(), step, size, 1.0, history.usable(e0.shape, step, size, 1.0))
            assert len(calls) == (usable if usable >= 3 else 0)
            kept = [(e0, step, size)] + kept[:3]
            assert [(s, d) for s, d, _ in history.places] == [k[1:] for k in kept]
            for got, want in zip(history.scores, expected):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == pytest.approx(want, rel=1e-12)
        assert scored == 4 + 1 + 2 and expected[3] is not None

    def test_stage_candidates_match_their_coefficients(self):
        """Candidate n built from the kept differences, Σ_{k≤n} ∇ᵏe₁, is the
        extrapolation Σ aᵢeᵢ of its row of coefficients to round-off."""
        rng = np.random.default_rng(13)
        history = operators._StageErrors()
        errors = []
        for step in range(6):
            e = rng.standard_normal((2, 16))
            history.record(e.copy(), step, 0.1, 1.0, history.usable(e.shape, step, 0.1, 1.0))
            errors.insert(0, e)
        guess = rng.standard_normal((2, 16))
        for n, coefficients in enumerate(operators._EXTRAPOLATIONS):
            history.scores = [0.0 if k == n else 1.0 for k in range(4)]
            got = history.corrected(guess, 4)
            want = guess + sum(a * e for a, e in zip(coefficients, errors))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n

    def test_stage_error_is_measured_from_the_uncorrected_guess(self):
        """CG updates its iterate in place, and never the in-step guess that
        the stage's error is measured from: the recorded error is the
        solution minus that guess, whether the guess returned is it or a
        corrected one."""
        g = grid1(16)
        depth = DepthState(BathymetryState.flat(g), 1.0 + 0.1 * np.cos(g.coords[0]))
        rng = np.random.default_rng(14)
        base, drift = rng.standard_normal((1, 16)), rng.standard_normal((1, 16))
        dt = 0.1
        session = SolverSession()
        for step in range(6):
            for index in (0, 1):
                session.stage = (-1, step, 0.5 * index, dt)
                in_step = session.initial_guess((1, 16))
                # from step 1 on, a line through two solutions: a fresh array
                assert step == 0 or in_step is not session.last_solution
                session.stage = (index, step, 0.5 * index, dt)
                rhs = base + (0.1 * step + 0.05 * index) ** 2 * drift
                u = invert_frakT(depth, rhs, MU, session=session).u
                if in_step is not None:
                    assert np.array_equal(session._errors[index].differences[0], u - in_step)
        # the last steps' guesses were corrected ones
        assert all(session._errors[index].scores[0] is not None for index in (0, 1))

    def test_failed_solve_leaves_no_pending_guess(self, monkeypatch):
        """A solve that raises leaves its guess pending; a μ = 0 solve after
        it asks for no guess and files no error, in its own stage's history
        or in the failed solve's."""
        g = grid1(16)
        depth = DepthState(BathymetryState.flat(g), 1.0 + 0.1 * np.cos(g.coords[0]))
        rhs = np.random.default_rng(15).standard_normal((1, 16))
        session = SolverSession()
        session.stage = (0, 0, 0.0, 0.1)
        invert_frakT(depth, rhs, MU, session=session)
        monkeypatch.setattr(operators, "_CG_ITERATIONS_PER_POINT", 0)
        session.stage = (0, 1, 0.0, 0.1)
        with pytest.raises(NonConvergenceError):
            invert_frakT(depth, 2.0 * rhs, MU, session=session)
        session.stage = (1, 1, 0.5, 0.1)
        invert_frakT(depth, 3.0 * rhs, 0.0, session=session)
        # an error filed at step 1 would be usable at step 2 with weight 0
        for index in (0, 1):
            assert session._errors[index].usable((1, 16), 2, 0.1, 0.0) == 0, index

    def test_extrapolated_warm_start_saves_iterations(self):
        """A solution that moves linearly in time is guessed exactly."""
        g, depth, rng = _random_setup(17)
        v0 = band_limited_vector(g, rng, 5)
        dv = band_limited_vector(g, rng, 5)
        session = SolverSession()
        for step in (1, 2):
            session.stage = (0, step, 0.0, 1.0)
            invert_frakT(depth, v0 + (step - 1) * dv, MU, session=session)
        session.stage = (0, 3, 0.0, 1.0)
        _, with_line, _ = invert_frakT(depth, v0 + 2.0 * dv, MU, session=session)
        plain = SolverSession()
        invert_frakT(depth, v0 + dv, MU, session=plain)
        _, with_last, _ = invert_frakT(depth, v0 + 2.0 * dv, MU, session=plain)
        assert with_line < with_last

    def test_non_convergence_raises(self, monkeypatch):
        """The cap is 10 iterations per point of the longest axis; a solve
        that meets no tolerance within it raises with the cap and residual."""
        assert operators._CG_ITERATIONS_PER_POINT == 10
        g = PeriodicGrid((8, 16), (2.0 * np.pi, 2.0 * np.pi))
        rng = np.random.default_rng(3)
        b = band_limited_scalar(g, rng, 2, 0.15)
        bath = BathymetryState(ScalarField(g, b), 0.3)
        depth = DepthState(bath, 1.0 + band_limited_scalar(g, rng, 2, 0.5) - 0.3 * b)
        v = band_limited_vector(g, rng, 2)
        assert 16 < invert_frakT(depth, v, MU).iterations <= 160
        monkeypatch.setattr(operators, "_CG_ITERATIONS_PER_POINT", 1)
        with pytest.raises(NonConvergenceError) as exc:
            invert_frakT(depth, v, MU)
        assert exc.value.iterations == 16  # the longer axis, not the shorter
        assert exc.value.residual > EllipticSolveConfig().rel_tolerance

    @pytest.mark.parametrize("shape", [(256,), (128, 128)], ids=["1d_256", "2d_128"])
    def test_true_residual_meets_default_tolerance(self, shape):
        """CG stops on its updated residual; at the default tolerance the true
        ‖𝔗u − b‖/‖b‖ agrees with it to round-off and meets the tolerance too,
        over a β = 0.5 bottom with a band-limited right-hand side plus white
        noise."""
        g = PeriodicGrid(shape, (2.0 * np.pi,) * len(shape))
        rng = np.random.default_rng(3)
        b = band_limited_scalar(g, rng, 3, 0.5)
        bath = BathymetryState(ScalarField(g, b), 0.5)
        depth = DepthState(bath, 1.0 + band_limited_scalar(g, rng, 4, 0.12) - 0.5 * b)
        rhs = band_limited_vector(g, rng, 5) + 1e-3 * rng.standard_normal((g.dim, *shape))
        tol = EllipticSolveConfig().rel_tolerance
        u, _, residual = invert_frakT(depth, rhs, 0.8)
        true = np.linalg.norm(apply_frakT(depth, u, 0.8) - rhs) / np.linalg.norm(rhs)
        assert residual <= tol and true <= tol
        assert abs(true - residual) <= 0.05 * tol

    def test_depth_positivity_enforced(self):
        g = grid1(32)
        h = 0.5 + np.sin(g.coords[0])  # dips below zero
        with pytest.raises(CoercivityViolationError):
            DepthState(BathymetryState.flat(g), h)

    def test_non_positive_curvature_refused(self, monkeypatch):
        """A search direction with ⟨p, 𝔗p⟩ ≤ 0 stops CG with the depth's
        minimum, instead of a step along a direction of no descent."""
        g, depth, rng = _random_setup(19)
        frakT = operators._frakT

        def negated(depth, u, mu, out=None):
            return np.negative(frakT(depth, u, mu, out=out), out=out)

        monkeypatch.setattr(operators, "_frakT", negated)
        with pytest.raises(CoercivityViolationError, match="non-positive curvature") as caught:
            invert_frakT(depth, band_limited_vector(g, rng, 5), MU)
        assert caught.value.min_depth == depth.h_min

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_depth_must_be_finite(self, bad):
        g = grid1(32)
        h = np.ones(g.shape)
        h[5] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            DepthState(BathymetryState.flat(g), h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_refused(self, bad):
        """A right-hand side with a non-finite value is refused, cold and
        from a warm start, instead of returning the guess as converged."""
        g, depth, rng = _random_setup(18)
        v = band_limited_vector(g, rng, 5)
        session = SolverSession()
        invert_frakT(depth, v, MU, session=session)
        v[0, 3] = bad
        for warm in (None, session):
            with pytest.raises(ValidationError, match="non-finite"):
                invert_frakT(depth, v, MU, session=warm)

    def test_depth_shape_checked(self):
        with pytest.raises(GridMismatchError):
            DepthState(BathymetryState.flat(grid1(32)), np.ones(16))

    def test_grid_mismatch(self):
        g, depth, _ = _random_setup(17)
        other = np.zeros((1, 32))
        with pytest.raises(GridMismatchError):
            apply_frakT(depth, other, MU)

    def test_config_validation(self):
        """rel_tolerance lies in [1e-14, 1e-6]: below it CG's residual cannot
        follow the tolerance, and at 1e-300 it underflows to 0."""
        for tol in (1e-3, 1e-15, 1e-300, float("nan")):
            with pytest.raises(ValidationError, match=r"rel_tolerance must lie in \[1e-14, 1e-6\]"):
                EllipticSolveConfig(rel_tolerance=tol)
        assert EllipticSolveConfig(rel_tolerance=1e-14).rel_tolerance == 1e-14

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_tightest_tolerance_converges(self, n):
        """At the floor 1e-14 a solve over a β = 0.3 bottom with μ = 0.9
        converges to a nonzero residual at every size; the true residual
        stays within round-off of it."""
        g, depth, rng = _random_setup(21, n=n)
        v = band_limited_vector(g, rng, 4, 0.5)
        cfg = EllipticSolveConfig(rel_tolerance=1e-14)
        u, iterations, residual = invert_frakT(depth, v, MU, cfg)
        assert 0.0 < residual <= 1e-14
        assert 0 < iterations < 10 * n
        assert np.linalg.norm(apply_frakT(depth, u, MU) - v) <= 1e-12 * np.linalg.norm(v)


class TestPreconditioner:
    """The map CG preconditions with: the flat-state inverse P̄ itself for an
    RK-stage solve over a flat bottom, and s·P̄(s·r), s = h̄/h, for every
    other solve, over a bottom or a flat one."""

    @staticmethod
    def _scaled_cases(dim):
        """(grid, depth, rng) over a bottom, then over a flat bottom: the
        depths a solve outside a stage preconditions with s·P̄(s·r)."""
        if dim == 1:
            g, depth, rng = _random_setup(16)
        else:
            g, depth, rng = _bottom_setup_2d(17)
        assert depth.beta_grad_b is not None
        g_flat = grid1(48) if dim == 1 else grid2(32)
        rng_flat = np.random.default_rng(20)
        flat = smooth_depth(BathymetryState.flat(g_flat), rng_flat)
        return [(g, depth, rng), (g_flat, flat, rng_flat)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_symmetric_over_a_bottom(self, dim):
        """The scaled map is symmetric, over a bottom and over a flat one."""
        for g, depth, rng in self._scaled_cases(dim):
            precond = operators._preconditioner(depth, MU, stage=False)
            a, c = band_limited_vector(g, rng, 4), band_limited_vector(g, rng, 4)
            za, zc = precond(a), precond(c)
            lhs, rhs = g.inner(za, c), g.inner(a, zc)
            assert abs(lhs - rhs) <= 1e-13 * g.norm_l2(a) * g.norm_l2(c)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_positive_over_a_bottom(self, dim):
        """The scaled map is positive, over a bottom and over a flat one."""
        for g, depth, rng in self._scaled_cases(dim):
            precond = operators._preconditioner(depth, MU, stage=False)
            for _ in range(5):
                a = band_limited_vector(g, rng, 4)
                assert g.inner(precond(a), a) > 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_flat_bottom_uses_the_flat_inverse(self, dim):
        """A stage solve over a flat bottom takes P̄."""
        g = grid1(48) if dim == 1 else grid2(32)
        rng = np.random.default_rng(18)
        depth = smooth_depth(BathymetryState.flat(g), rng)
        r = band_limited_vector(g, rng, 5)
        z = operators._preconditioner(depth, MU, stage=True)(r)
        assert np.array_equal(z, operators._flat_preconditioner(g, depth.mean_depth, MU)(r))

    def test_bottom_keeps_flat_inverses(self, monkeypatch):
        """A bottom builds the flat inverse once per (h̄, μ), for the solves of
        a session and those without one, and keeps the four latest."""
        built = []
        build = operators._flat_preconditioner
        monkeypatch.setattr(
            operators, "_flat_preconditioner", lambda *key: built.append(key) or build(*key)
        )
        g, depth, rng = _random_setup(19)
        session = SolverSession()
        for warm in (session, session, None):
            invert_frakT(depth, band_limited_vector(g, rng, 5), MU, session=warm)
        assert built == [(g, depth.mean_depth, MU)]
        kept = depth.bath.flat_inverse
        first = kept(depth.mean_depth, MU)
        for h in (1.1, 1.2, 1.3, 1.4):
            kept(h, MU)
        assert kept.cache_info().currsize == operators._FLAT_INVERSES_KEPT == 4
        assert kept(depth.mean_depth, MU) is not first
        assert len(built) == 6


def _solve_cases():
    """(depth, rng) by name: a 1-D and a 2-D depth over a bottom, and over a flat bottom."""
    _, depth1, rng1 = _random_setup(23)
    _, depth2, rng2 = _bottom_setup_2d(24)
    flat = smooth_depth(BathymetryState.flat(grid2(32)), np.random.default_rng(25))
    flat1 = smooth_depth(BathymetryState.flat(grid1(48)), np.random.default_rng(29))
    return {
        "1d_bottom": (depth1, rng1),
        "2d_bottom": (depth2, rng2),
        "2d_flat": (flat, np.random.default_rng(26)),
        "1d_flat": (flat1, np.random.default_rng(30)),
    }


class TestSolveWorkspace:
    """The matvec, preconditioner and CG updates run in the grid's work
    arrays with every arithmetic order of the expression form kept
    (``_helpers.frakT_oracle``/``invert_frakT_oracle``), and what a caller
    keeps is never one of those arrays."""

    @pytest.mark.parametrize("case", ["1d_bottom", "2d_bottom", "2d_flat"])
    def test_matvec_matches_expression_form(self, case):
        depth, rng = _solve_cases()[case]
        g = depth.grid
        for mu in (MU, 0.0):
            for _ in range(3):
                u = g.dealias(band_limited_vector(g, rng, 6))
                assert np.array_equal(apply_frakT(depth, u, mu), frakT_oracle(depth, u, mu))
            assert np.array_equal(apply_T(depth, u), h_times_T_oracle(depth, u) / depth.h)

    @pytest.mark.parametrize(
        "case", ["1d_bottom", "2d_bottom", "2d_flat", "1d_flat", "1d_flat_stage", "2d_flat_stage"]
    )
    def test_solve_matches_expression_form(self, case):
        """Cold, and warm-started from the session's last solution; a
        ``_stage`` case solves in an RK stage, where a flat bottom keeps P̄."""
        stage = case.endswith("_stage")
        depth, rng = _solve_cases()[case.removesuffix("_stage")]
        g = depth.grid
        cfg = EllipticSolveConfig(rel_tolerance=1e-11)
        session = SolverSession()
        if stage:
            # one place for both solves: the second starts from the first's solution
            session.stage = (0, 1, 0.0, 1.0)
        v1 = g.dealias(band_limited_vector(g, rng, 5))
        v2 = v1 + 0.1 * g.dealias(band_limited_vector(g, rng, 5))
        cold = invert_frakT(depth, v1, MU, cfg, session)
        expected = invert_frakT_oracle(depth, v1, MU, cfg.rel_tolerance, stage=stage)
        assert cold.iterations == expected[1] > 5
        assert np.array_equal(cold.u, expected[0]) and cold.residual == expected[2]
        warm = invert_frakT(depth, v2, MU, cfg, session)
        expected = invert_frakT_oracle(depth, v2, MU, cfg.rel_tolerance, x0=cold.u, stage=stage)
        assert warm.iterations == expected[1] > 0
        assert np.array_equal(warm.u, expected[0]) and warm.residual == expected[2]

    def test_iterations_allocate_no_grid_sized_array(self, monkeypatch):
        """Between two inner products of a second 128² solve over a bottom,
        the traced memory never rises by a grid-sized array after the solve's
        first few arrays, so its allocations do not grow with its iteration
        count.  (128² is the size where a fresh array costs page faults.)"""
        g = PeriodicGrid((128, 128), (4.0 * np.pi, 4.0 * np.pi))
        rng = np.random.default_rng(27)
        bath = BathymetryState(ScalarField(g, band_limited_scalar(g, rng, 2, 0.1)), 0.4)
        depth = DepthState(bath, 1.0 + band_limited_scalar(g, rng, 3, 0.15))
        scalar_bytes = 8 * g.size
        inner = operators._inner
        rises = []

        def traced(a, b):
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - level[0])
            tracemalloc.reset_peak()
            level[0] = current
            return inner(a, b)

        invert_frakT(depth, band_limited_vector(g, rng, 5), MU)  # makes the work arrays
        v = band_limited_vector(g, rng, 5)
        monkeypatch.setattr(operators, "_inner", traced)
        tracemalloc.start()
        try:
            level = [tracemalloc.get_traced_memory()[0]]
            iterations = invert_frakT(depth, v, MU).iterations
        finally:
            tracemalloc.stop()
        # ‖b‖, ‖r₀‖ and ⟨r₀, z₀⟩, then ⟨p, q⟩, ‖r‖ and ⟨r, z⟩ per iteration
        assert iterations > 10 and len(rises) == 3 * iterations + 2
        # before ⟨r₀, z₀⟩: s = h̄/h, then x, r, z and p of two scalar fields each
        assert sum(rises[:3]) < 10 * scalar_bytes
        assert max(rises[3:]) < scalar_bytes // 8

    @pytest.mark.parametrize("case", ["1d_bottom", "2d_bottom", "2d_flat"])
    def test_results_are_not_overwritten(self, case):
        """A result held across a second call keeps its values."""
        depth, rng = _solve_cases()[case]
        g = depth.grid
        u1, u2 = (g.dealias(band_limited_vector(g, rng, 5)) for _ in range(2))
        for op in (
            lambda u: apply_frakT(depth, u, MU),
            lambda u: apply_T(depth, u),
            lambda u: invert_frakT(depth, u, MU).u,
            lambda u: operators._preconditioner(depth, MU, stage=False)(u),
            lambda u: operators._preconditioner(depth, MU, stage=True)(u),
            lambda u: good_unknown_w(depth, u),
            lambda u: dh_frakT(depth, u[0], u, MU),
        ):
            first = op(u1)
            kept = first.copy()
            second = op(u2)
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, kept)


class TestShapeDerivative:
    def test_finite_difference_convergence(self):
        g, depth, rng = _random_setup(18)
        f = band_limited_scalar(g, rng, 3, 0.2)
        u = band_limited_vector(g, rng, 3)
        exact = dh_frakT(depth, f, u, MU)

        def fd_error(delta: float) -> float:
            dp = DepthState(depth.bath, depth.h + delta * f)
            dm = DepthState(depth.bath, depth.h - delta * f)
            fd = (apply_frakT(dp, u, MU) - apply_frakT(dm, u, MU)) / (2.0 * delta)
            return g.norm_l2(fd - exact)

        e1, e2 = fd_error(1e-3), fd_error(5e-4)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)
        # absolute smallness at the finer step: the derivative is exact
        assert e2 < 1e-6 * g.norm_l2(exact)

    def test_direction_shape_checked(self):
        g, depth, rng = _random_setup(18)
        u = band_limited_vector(g, rng, 3)
        with pytest.raises(GridMismatchError, match="direction has shape"):
            dh_frakT(depth, np.ones(16), u, MU)

    def test_refinement_agreement(self):
        # operators evaluated at N and 2N coincide on the common points
        results = {}
        for n in (64, 128):
            g = grid1(n)
            x = g.coords[0]
            h = 1.0 + 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
            b = 0.15 * np.cos(x)
            u = (0.2 * np.sin(2 * x) + 0.1 * np.cos(x))[None, :]
            depth = DepthState(BathymetryState(ScalarField(g, b), 0.3), h)
            vel = u
            results[n] = {
                "T": apply_T(depth, vel)[0],
                "Q": apply_Q(depth, vel)[0],
                "Qb": apply_Qb(depth, vel)[0],
                "w": good_unknown_w(depth, vel),
            }
        for name in results[64]:
            coarse, fine = results[64][name], results[128][name]
            assert np.max(np.abs(fine[::2] - coarse)) < 1e-10, name
