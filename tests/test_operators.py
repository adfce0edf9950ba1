"""Operator calculus tests: symbolic oracles, quadratic form, CG inversion."""
from __future__ import annotations

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import band_limited_scalar, band_limited_vector, smooth_depth
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
        g = grid2(32)
        rng = np.random.default_rng(13)
        b = band_limited_scalar(g, rng, 2, 0.1)
        bath = BathymetryState(ScalarField(g, b), 0.4)
        depth = DepthState(bath, 1.0 + band_limited_scalar(g, rng, 3, 0.15))
        v = band_limited_vector(g, rng, 4)
        u, iters, res = invert_frakT(depth, v, 0.5)
        back = apply_frakT(depth, u, 0.5)
        assert g.norm_l2(back - v) <= 1e-11 * g.norm_l2(v)

    def test_preconditioner_helps(self):
        g, depth, rng = _random_setup(14)
        v = band_limited_vector(g, rng, 5)
        _, it_pc, _ = invert_frakT(
            depth, v, MU, EllipticSolveConfig(preconditioner="flat_state")
        )
        _, it_raw, _ = invert_frakT(depth, v, MU, EllipticSolveConfig(preconditioner="none"))
        assert it_pc < it_raw

    def test_warm_start_session(self):
        g, depth, rng = _random_setup(15)
        v = band_limited_vector(g, rng, 5)
        session = SolverSession(EllipticSolveConfig())
        _, first, _ = invert_frakT(depth, v, MU, session=session)
        _, second, _ = invert_frakT(depth, v, MU, session=session)
        assert second == 0
        assert session.solves == 2
        assert session.last_solution is not None

    def test_session_extrapolates_in_time(self):
        """With times set, the guess is the line through the last two distinct times."""
        session = SolverSession(EllipticSolveConfig())
        first, second = np.full((1, 8), 1.0), np.full((1, 8), 3.0)
        session.time = 0.0
        session.record(first, 1)
        assert session.initial_guess((1, 8)) is session.last_solution
        session.time = 0.5
        session.record(second, 1)
        session.time = 1.0
        assert np.array_equal(session.initial_guess((1, 8)), np.full((1, 8), 5.0))
        session.time = 0.5  # the time of the last solution: no extrapolation
        assert session.initial_guess((1, 8)) is session.last_solution
        session.time = 0.1 + 0.2 + 0.2  # 0.5 up to round-off: the same time
        assert session.initial_guess((1, 8)) is session.last_solution
        session.time = None
        assert session.initial_guess((1, 8)) is session.last_solution
        assert session.initial_guess((1, 9)) is None

    def test_session_does_not_extrapolate_far(self):
        """Two solutions close in time give no guess far beyond them."""
        session = SolverSession(EllipticSolveConfig())
        for t, value in ((1.0, 1.0), (1.0 + 1e-9, 2.0)):
            session.time = t
            session.record(np.full((1, 8), value), 1)
        session.time = 2.0
        assert session.initial_guess((1, 8)) is session.last_solution

    @staticmethod
    def _stage_history(session, starts, dt, solution, stages=(0, 1)):
        """Record ``solution(start, index)`` for every stage of steps at ``starts``."""
        for start in starts:
            for index in stages:
                session.stage = (index, start, dt)
                session.time = start + 0.5 * index * dt
                session.record(solution(start, index), 1)

    @staticmethod
    def _cubic(seed):
        coeffs = np.random.default_rng(seed).standard_normal((2, 4, 1, 8))
        return lambda t, index: sum(c * t**p for p, c in enumerate(coeffs[index]))

    def test_session_extrapolates_each_stage_over_steps(self):
        """A stage solution cubic in step time is continued to round-off."""
        solution = self._cubic(5)
        dt, t0 = 0.1, 2.0
        session = SolverSession(EllipticSolveConfig())
        self._stage_history(session, [t0 + n * dt for n in range(6)], dt, solution)
        start = t0 + 6 * dt
        for index in (0, 1):
            session.stage = (index, start, dt)
            session.time = start + 0.5 * index * dt
            guess = session.initial_guess((1, 8))
            exact = solution(start, index)
            assert np.max(np.abs(guess - exact)) <= 1e-11 * np.max(np.abs(exact))

    def test_session_stage_guess_falls_back(self):
        """Without four evenly spaced predecessors at this dt, the guess is the one in time."""
        solution = self._cubic(6)
        dt = 0.1

        def guesses(starts, stage, warm_start=True):
            session = SolverSession(EllipticSolveConfig(warm_start=warm_start))
            self._stage_history(session, starts, dt, solution)
            session.stage = stage
            session.time = stage[1] + 0.5 * stage[0] * stage[2]
            with_stage = session.initial_guess((1, 8))
            session.stage = None
            return with_stage, session.initial_guess((1, 8))

        even = [n * dt for n in range(4)]
        cubic, in_time = guesses(even, (0, 4 * dt, dt))
        assert not np.array_equal(cubic, in_time)
        for starts, stage in (
            (even, (0, 4 * dt, 0.5 * dt)),  # a shorter step
            (even, (0, 4 * dt, 2.0 * dt)),  # a longer step
            (even, (0, 5 * dt, dt)),  # a step missing from the history
            ([0.0, dt, 2.5 * dt, 3 * dt], (0, 4 * dt, dt)),  # uneven starts
            (even[1:], (0, 4 * dt, dt)),  # three predecessors only
            (even, (2, 4 * dt, dt)),  # a stage index never solved
        ):
            with_stage, in_time = guesses(starts, stage)
            assert np.array_equal(with_stage, in_time)
        assert guesses(even, (0, 4 * dt, dt), warm_start=False) == (None, None)

    def test_extrapolated_warm_start_saves_iterations(self):
        """A solution that moves linearly in time is guessed exactly."""
        g, depth, rng = _random_setup(17)
        v0 = band_limited_vector(g, rng, 5)
        dv = band_limited_vector(g, rng, 5)
        session = SolverSession(EllipticSolveConfig())
        for t in (0.0, 1.0):
            session.time = t
            invert_frakT(depth, v0 + t * dv, MU, session=session)
        session.time = 2.0
        _, with_line, _ = invert_frakT(depth, v0 + 2.0 * dv, MU, session=session)
        plain = SolverSession(EllipticSolveConfig())
        invert_frakT(depth, v0 + dv, MU, session=plain)
        _, with_last, _ = invert_frakT(depth, v0 + 2.0 * dv, MU, session=plain)
        assert with_line < with_last

    def test_non_convergence_raises(self):
        g, depth, rng = _random_setup(16)
        v = band_limited_vector(g, rng, 5)
        cfg = EllipticSolveConfig(max_iterations=1, preconditioner="none")
        with pytest.raises(NonConvergenceError) as exc:
            invert_frakT(depth, v, MU, cfg)
        assert exc.value.iterations == 1
        assert exc.value.residual > 0.0

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

    def test_depth_shape_checked(self):
        with pytest.raises(GridMismatchError):
            DepthState(BathymetryState.flat(grid1(32)), np.ones(16))

    def test_grid_mismatch(self):
        g, depth, _ = _random_setup(17)
        other = np.zeros((1, 32))
        with pytest.raises(GridMismatchError):
            apply_frakT(depth, other, MU)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="rel_tolerance"):
            EllipticSolveConfig(rel_tolerance=1e-3)
        with pytest.raises(ValidationError):
            EllipticSolveConfig(max_iterations=0)
        with pytest.raises(ValidationError, match="preconditioner"):
            EllipticSolveConfig(preconditioner="jacobi")


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
