"""Operator calculus tests: symbolic oracles, quadratic form, CG inversion."""
from __future__ import annotations

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import band_limited_scalar, band_limited_vector, smooth_depth
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
        return r if precond is None else precond(r)[0]

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
        ‖e₀ − c‖², as a running average, from one inner product per kept
        error plus ⟨e₀, e₀⟩; the history keeps four errors and a broken chain
        or a shorter step scores nothing."""
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
            history.record(e0, step, size, 1.0, history.usable(e0.shape, step, size, 1.0))
            assert len(calls) == len(kept) + 1
            kept = [(e0, step, size)] + kept[:3]
            assert [(s, d) for _, s, d, _ in history.errors] == [k[1:] for k in kept]
            for got, want in zip(history.scores, expected):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == pytest.approx(want, rel=1e-12)
        assert scored == 4 + 1 + 2 and expected[3] is not None

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
    """The map CG preconditions with: s·P̄(s·r), s = h̄/h, over a bottom, and
    the flat-state inverse P̄ itself over a flat bottom."""

    @staticmethod
    def _bottom(dim):
        if dim == 1:
            g, depth, rng = _random_setup(16)
        else:
            g, depth, rng = _bottom_setup_2d(17)
        assert depth.beta_grad_b is not None
        return g, depth, rng

    @pytest.mark.parametrize("dim", [1, 2])
    def test_symmetric_over_a_bottom(self, dim):
        g, depth, rng = self._bottom(dim)
        precond = operators._preconditioner(depth, MU)
        a, c = band_limited_vector(g, rng, 4), band_limited_vector(g, rng, 4)
        za, spec = precond(a)
        zc, _ = precond(c)
        assert spec is None
        lhs, rhs = g.inner(za, c), g.inner(a, zc)
        assert abs(lhs - rhs) <= 1e-13 * g.norm_l2(a) * g.norm_l2(c)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_positive_over_a_bottom(self, dim):
        g, depth, rng = self._bottom(dim)
        precond = operators._preconditioner(depth, MU)
        for _ in range(5):
            a = band_limited_vector(g, rng, 4)
            assert g.inner(precond(a)[0], a) > 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_flat_bottom_uses_the_flat_inverse(self, dim):
        g = grid1(48) if dim == 1 else grid2(32)
        rng = np.random.default_rng(18)
        depth = smooth_depth(BathymetryState.flat(g), rng)
        r = band_limited_vector(g, rng, 5)
        z, spec = operators._preconditioner(depth, MU)(r)
        z_flat, spec_flat = operators._flat_preconditioner(g, depth.mean_depth, MU)(r)
        assert np.array_equal(z, z_flat) and np.array_equal(spec, spec_flat)

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
