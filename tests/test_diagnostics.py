"""Norms, dual pairings, Hamiltonian and energy functionals."""
from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import band_limited_scalar, band_limited_vector, smooth_bathymetry, split_tendency
from gnwave import diagnostics
from gnwave.diagnostics import (
    DiagnosticsRecord,
    collect_record,
    energy_E,
    energy_F,
    energy_appendixA,
    hamiltonian_gn,
    multi_indices,
    norm_Hn,
    norm_Xn,
    norm_Yn,
    partial_derivative,
    sobolev_weight,
    vorticity_norm,
)
from gnwave.errors import NonConvergenceError, ValidationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import (
    FluidState,
    ModelParams,
    VariableKind,
    make_depth,
    rhs_gn_u,
    v_from_u,
)
from gnwave.operators import (
    BathymetryState,
    EllipticSolveConfig,
    SolverSession,
    apply_frakT,
)


def grid1(n=64):
    return PeriodicGrid((n,), (2.0 * np.pi,))


def grid2(n=32):
    return PeriodicGrid((n, n), (2.0 * np.pi, 2.0 * np.pi))


class TestWeights:
    def test_multi_indices_count(self):
        assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
        assert len(multi_indices(2, 4)) == 15

    def test_weight_1d_polynomial(self):
        g = grid1()
        w = sobolev_weight(g, 2)
        k = g.deriv_wavenumbers[0]
        assert np.allclose(w, 1 + k**2 + k**4, atol=0)

    def test_weight_2d_first_order(self):
        g = grid2()
        w = sobolev_weight(g, 1)
        kx, ky = g.deriv_wavenumbers
        assert np.allclose(w, 1 + kx**2 + ky**2, atol=0)

    def test_resolution_guard(self):
        g = grid1(32)
        with pytest.raises(ValidationError, match="resolution guard"):
            sobolev_weight(g, 11)

    @pytest.mark.parametrize("order", [2.5, -1])
    def test_order_must_be_a_nonnegative_integer(self, order):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            sobolev_weight(grid1(32), order)

    def test_partial_derivative_checks_its_arity(self):
        """A multi-index with more entries than the grid has axes is refused,
        not cut to the grid's dimension."""
        g = grid1(32)
        with pytest.raises(ValidationError, match="does not match dimension"):
            partial_derivative(g, np.ones(g.shape), (1, 0))

    def test_partial_derivative_matches_gradient(self):
        g = grid2()
        f = band_limited_scalar(g, np.random.default_rng(0), 5, 1.0)
        gx = partial_derivative(g, f, (1, 0))
        assert np.max(np.abs(gx - g.gradient(f)[0])) < 1e-13


class TestSobolevNorms:
    def test_constant_all_orders(self):
        g = grid2()
        c = 1.7
        f = ScalarField(g, np.full(g.shape, c))
        for n in (0, 2, 4):
            assert abs(norm_Hn(f, n) ** 2 - c**2 * g.volume) < 1e-12

    def test_single_mode_closed_form(self):
        g = grid1()
        a, k = 0.8, 3.0
        f = ScalarField(g, a * np.cos(k * g.coords[0]))
        for n in (0, 1, 4):
            expected = (a**2 * g.volume / 2) * sum(k ** (2 * j) for j in range(n + 1))
            assert abs(norm_Hn(f, n) ** 2 - expected) < 1e-10 * expected

    def test_matches_direct_derivative_sum(self):
        g = grid1()
        f = band_limited_scalar(g, np.random.default_rng(1), 6, 1.0)
        fx = g.gradient(f)[0]
        fxx = g.gradient(fx)[0]
        direct = g.norm_l2(f) ** 2 + g.norm_l2(fx) ** 2 + g.norm_l2(fxx) ** 2
        assert abs(norm_Hn(ScalarField(g, f), 2) ** 2 - direct) < 1e-11 * direct


class TestVelocityNorms:
    def test_x_norm_single_mode(self):
        g = grid1()
        a, k, mu = 0.5, 4.0, 0.7
        u = VectorField(g, (a * np.cos(k * g.coords[0]))[None])
        base = a**2 * g.volume / 2
        expected = base * (1 + mu * k**2)
        assert abs(norm_Xn(u, 0, mu) ** 2 - expected) < 1e-11 * expected

    def test_gradient_mode_dual_norm(self):
        g = grid1()
        a, k, mu = 0.3, 5.0, 0.9
        f = a * np.cos(k * g.coords[0])
        v = VectorField(g, g.gradient(f))
        expected = (a**2 * k**2 * g.volume / 2) / (1 + mu * k**2)
        assert abs(norm_Yn(v, 0, mu) ** 2 - expected) < 1e-11 * expected

    def test_mu_zero_degenerates_to_sobolev(self):
        g = grid2()
        u = VectorField(g, band_limited_vector(g, np.random.default_rng(2), 5, 1.0))
        for n in (0, 2):
            assert abs(norm_Xn(u, n, 0.0) - norm_Hn(u, n)) < 1e-12
            assert abs(norm_Yn(u, n, 0.0) - norm_Hn(u, n)) < 1e-12

    def test_duality_equality_at_optimizer(self):
        g = grid2()
        mu = 0.8
        v_data = band_limited_vector(g, np.random.default_rng(3), 6, 1.0)
        hats = [g.fft(c) for c in v_data]
        kd = g.deriv_wavenumbers
        k2 = sum(k * k for k in kd)
        k_dot = sum(k * c for k, c in zip(kd, hats))
        u_hats = [c - mu * k * k_dot / (1 + mu * k2) for k, c in zip(kd, hats)]
        u = VectorField(g, np.stack([g.ifft(c) for c in u_hats]))
        v = VectorField(g, v_data)
        pairing = g.inner(v.data, u.data)
        bound = norm_Yn(v, 0, mu) * norm_Xn(u, 0, mu)
        assert abs(pairing - bound) < 1e-12 * bound

    @given(seed=st.integers(0, 2**31 - 1), mu=st.floats(0.05, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_embedding_chain(self, seed, mu):
        g = grid1(32)
        rng = np.random.default_rng(seed)
        u = VectorField(g, band_limited_vector(g, rng, 8, 1.0))
        n = 2
        slack = 1 + 1e-12
        assert norm_Yn(u, n, mu) <= norm_Hn(u, n) * slack
        assert norm_Hn(u, n) <= norm_Xn(u, n, mu) * slack
        div = ScalarField(g, g.divergence(u.data))
        assert norm_Hn(div, n) <= norm_Xn(u, n, mu) / np.sqrt(mu) * slack

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_duality_inequality(self, seed):
        g = grid1(32)
        rng = np.random.default_rng(seed)
        mu = 0.6
        v = VectorField(g, band_limited_vector(g, rng, 8, 1.0))
        u = VectorField(g, band_limited_vector(g, rng, 8, 1.0))
        pairing = abs(g.inner(v.data, u.data))
        assert pairing <= norm_Yn(v, 0, mu) * norm_Xn(u, 0, mu) * (1 + 1e-12)


class TestHamiltonian:
    def test_rest_is_zero(self):
        g = grid1()
        params = ModelParams(epsilon=0.5, beta=0.0, mu=0.8)
        bath = BathymetryState.flat(g)
        zeta, v = np.zeros(g.shape), np.zeros((g.dim,) + g.shape)
        val = hamiltonian_gn(zeta, v, params, make_depth(params, zeta, bath))
        assert abs(val) < 1e-15

    def test_constant_surface(self):
        g = grid2()
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.8)
        bath = BathymetryState.flat(g)
        c = 0.4
        zeta = np.full(g.shape, c)
        val = hamiltonian_gn(
            zeta, np.zeros((g.dim,) + g.shape), params, make_depth(params, zeta, bath)
        )
        assert abs(val - 0.5 * c**2 * g.volume) < 1e-13

    def test_flat_single_mode_closed_form(self):
        g = grid1()
        params = ModelParams(epsilon=0.0, beta=0.0, mu=0.9)
        bath = BathymetryState.flat(g)
        a, p, k = 0.3, 0.2, 4.0
        x = g.coords[0]
        zeta = a * np.cos(k * x)
        psi_grad = (-p * k * np.sin(k * x))[None]
        val = hamiltonian_gn(zeta, psi_grad, params, make_depth(params, zeta, bath))
        expected = 0.5 * g.volume * (a**2 / 2 + (k**2 * p**2 / 2) / (1 + params.mu * k**2 / 3))
        assert abs(val - expected) < 1e-11 * expected


def make_v_state(seed, grid, eps=0.4, beta=0.3, mu=0.8, amp=0.1):
    rng = np.random.default_rng(seed)
    params = ModelParams(epsilon=eps, beta=beta, mu=mu)
    bath = BathymetryState(ScalarField(grid, band_limited_scalar(grid, rng, 2, 0.15)), beta)
    state = FluidState(
        ScalarField(grid, band_limited_scalar(grid, rng, 3, amp)),
        VectorField(grid, band_limited_vector(grid, rng, 3, 2 * amp)),
        VariableKind.V_VARIABLE,
    )
    return state, params, bath


class TestSymmetrizerEnergy:
    def test_rest_is_zero(self):
        g = grid1()
        params = ModelParams(epsilon=0.4, beta=0.0, mu=0.8)
        bath = BathymetryState.flat(g)
        rest = FluidState.rest(g)
        assert energy_F(rest, params, make_depth(params, rest.zeta.data, bath), 2) == 0.0
        assert energy_E(FluidState.rest(g), params, 2) == 0.0

    def test_order_zero_no_correction(self):
        g = grid1()
        state, params, bath = make_v_state(4, g)
        depth = make_depth(params, state.zeta.data, bath)
        from gnwave.operators import invert_frakT

        hv = depth.h * state.vel.data
        u, _, _ = invert_frakT(depth, hv, params.mu)
        direct = g.norm_l2(state.zeta.data) ** 2 + g.inner(state.vel.data, depth.h * u)
        assert abs(energy_F(state, params, depth, 0) - direct) < 1e-12 * abs(direct)

    def test_positive_and_comparable(self):
        g = grid1()
        state, params, bath = make_v_state(5, g)
        e_val = energy_E(state, params, 2)
        f_val = energy_F(state, params, make_depth(params, state.zeta.data, bath), 2)
        assert e_val > 0 and f_val > 0
        assert 1e-3 < f_val / e_val < 1e3

    def test_kind_guard(self):
        g = grid1()
        state, params, bath = make_v_state(6, g)
        u_state = FluidState(state.zeta, state.vel, VariableKind.U_VARIABLE)
        with pytest.raises(ValidationError, match="v-variable"):
            energy_F(u_state, params, make_depth(params, state.zeta.data, bath), 1)
        with pytest.raises(ValidationError, match="v-variable"):
            energy_E(u_state, params, 1)


def q_alpha_linearized(g, h, u, bgb, w):
    """Advective quadratic form acting on a derivative velocity field."""
    dw = g.divergence(w)
    adv_dw = np.einsum("i...,i...->...", u, g.gradient(dw))
    out = -(1.0 / (3 * h)) * g.gradient(h**3 * adv_dw)
    if bgb is not None:
        wb = np.einsum("i...,i...->...", bgb, w)
        adv_wb = np.einsum("i...,i...->...", u, g.gradient(wb))
        out = out + (0.5 / h) * g.gradient(h**2 * adv_wb)
        out = out - (0.5 / h) * (h**2 * adv_dw) * bgb
        out = out + adv_wb * bgb
    return out


class TestClassicalEnergyPair:
    def test_rest_pair_zero(self):
        g = grid1()
        params = ModelParams(epsilon=0.4, beta=0.0, mu=0.8, formulation="gn_u")
        bath = BathymetryState.flat(g)
        f_val, g_val = energy_appendixA(
            FluidState.rest(g, VariableKind.U_VARIABLE), params, bath, (1,)
        )
        assert f_val == 0.0 and g_val == 0.0

    def test_zero_index_quadratic_form(self):
        g = grid1()
        state, params, bath = make_v_state(7, g)
        u_state = FluidState(state.zeta, state.vel, VariableKind.U_VARIABLE)
        depth = make_depth(params, u_state.zeta.data, bath)
        f_val, _ = energy_appendixA(u_state, params, bath, (0,))
        quad = g.inner(apply_frakT(depth, u_state.vel.data, params.mu), u_state.vel.data)
        direct = 0.5 * (g.norm_l2(u_state.zeta.data) ** 2 + quad)
        assert abs(f_val - direct) < 1e-12 * abs(direct)

    def test_energy_balance_identity(self):
        # dF_α/dt + εG_α = ∫ r_α ζ_α + h r_α·u_α with the residuals of the
        # linearized system assembled explicitly; the time derivative of F_α
        # is expanded through the symmetric operator and its depth rate.
        g = grid1(96)
        rng = np.random.default_rng(8)
        eps, beta, mu = 0.4, 0.3, 0.8
        params = ModelParams(epsilon=eps, beta=beta, mu=mu, formulation="gn_u")
        bath = BathymetryState(ScalarField(g, band_limited_scalar(g, rng, 2, 0.15)), beta)
        state = FluidState(
            ScalarField(g, band_limited_scalar(g, rng, 3, 0.1)),
            VectorField(g, band_limited_vector(g, rng, 3, 0.2)),
            VariableKind.U_VARIABLE,
        )
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)
        depth = make_depth(params, state.zeta.data, bath)
        dzeta, du = split_tendency(rhs_gn_u(state.zeta.data, state.vel.data, params, depth, cfg))
        h = depth.h
        u = state.vel.data
        bgb = bath.beta_grad_b
        alpha = (2,)

        zeta_a = partial_derivative(g, state.zeta.data, alpha)
        u_a = partial_derivative(g, u, alpha)
        dzeta_a = partial_derivative(g, dzeta, alpha)
        du_a = partial_derivative(g, du, alpha)
        dt_h = eps * dzeta

        d_a = g.divergence(u_a)
        g_a = np.einsum("i...,i...->...", bgb, u_a)
        frakT_du_a = apply_frakT(depth, du_a, mu)
        df_dt = (
            g.inner(zeta_a, dzeta_a)
            + g.inner(frakT_du_a, u_a)
            + 0.5
            * g.integrate(
                dt_h * np.sum(u_a**2, axis=0)
                + mu * h**2 * dt_h * d_a**2
                - 2 * mu * h * dt_h * d_a * g_a
                + mu * dt_h * g_a**2
            )
        )

        r_a = dzeta_a + eps * g.divergence(u * zeta_a) + g.divergence(h * u_a)
        adv_u_a = np.einsum("i...,j...i->j...", u, np.stack([g.gradient(c) for c in u_a], axis=-1))
        rr_a = (
            frakT_du_a / h
            + g.gradient(zeta_a)
            + eps * adv_u_a
            + mu * eps * q_alpha_linearized(g, h, u, bgb, u_a)
        )

        _, g_val = energy_appendixA(state, params, bath, alpha)
        pairing = g.inner(r_a, zeta_a) + g.inner(h * rr_a, u_a)
        residual = df_dt + eps * g_val - pairing
        scale = max(abs(df_dt), abs(eps * g_val), abs(pairing), 1e-30)
        assert abs(residual) < 1e-9 * scale

    def test_kind_guard(self):
        g = grid1()
        state, params, bath = make_v_state(9, g)
        with pytest.raises(ValidationError, match="u-variable"):
            energy_appendixA(state, params, bath, (1,))


class TestVorticity:
    def test_gradient_field_zero(self):
        g = grid2()
        rng = np.random.default_rng(10)
        psi = band_limited_scalar(g, rng, 5, 1.0)
        state = FluidState(
            ScalarField.zeros(g), VectorField(g, g.gradient(psi)), VariableKind.V_VARIABLE
        )
        assert vorticity_norm(state) < 1e-12

    def test_rotational_single_mode(self):
        g = grid2()
        a, k = 0.4, np.array([2.0, 1.0])
        psi = a * np.cos(k[0] * g.coords[0] + k[1] * g.coords[1])
        v = VectorField(g, g.perp(g.gradient(psi)))
        state = FluidState(ScalarField.zeros(g), v, VariableKind.V_VARIABLE)
        expected = a * (k @ k) * np.sqrt(g.volume / 2)
        assert abs(vorticity_norm(state) - expected) < 1e-11 * expected

    def test_one_dimensional_rejected(self):
        g = grid1()
        state = FluidState.rest(g)
        with pytest.raises(ValidationError, match="planar"):
            vorticity_norm(state)


class TestRecords:
    def test_collect_full_record(self):
        g = grid1()
        state, params, bath = make_v_state(11, g)
        rec = collect_record(state, params, bath, order=2)
        assert rec.time == state.time
        assert rec.min_depth > 0
        assert rec.e_norm > 0 and rec.f_norm > 0 and rec.hamiltonian > 0
        assert rec.vorticity_l2 == 0.0
        assert rec.cg_iterations > 0

    def test_record_depends_on_its_state_alone(self):
        """Every record solves in a fresh session: two records of one state
        are equal, CG iteration count included."""
        state, params, bath = make_v_state(11, grid1())
        first = collect_record(state, params, bath, order=1)
        second = collect_record(state, params, bath, order=1)
        assert first.cg_iterations == second.cg_iterations > 0
        assert first == second

    def test_record_takes_the_flat_inverse_from_its_bottom(self, monkeypatch):
        """P̄ is kept by the bottom, not by the record's fresh session: a
        second record of one state builds none."""
        from gnwave import operators

        built = []
        build = operators._flat_preconditioner
        monkeypatch.setattr(
            operators, "_flat_preconditioner", lambda *key: built.append(key) or build(*key)
        )
        state, params, bath = make_v_state(11, grid1())
        collect_record(state, params, bath, order=1)
        assert len(built) == 1
        collect_record(state, params, bath, order=1)
        assert len(built) == 1

    def test_record_builds_one_water_column(self, monkeypatch):
        """The Hamiltonian and the symmetrizer energy share the record's depth."""
        from gnwave.operators import DepthState

        built = []
        init = DepthState.__post_init__

        def counted(depth):
            built.append(depth)
            init(depth)

        monkeypatch.setattr(DepthState, "__post_init__", counted)
        g = grid2()
        state, params, bath = make_v_state(13, g)
        collect_record(state, params, bath, order=1)
        assert len(built) == 1

    @staticmethod
    def _split(monkeypatch, on: bool) -> None:
        """Share the F terms with a worker on every grid, or on none."""
        monkeypatch.setattr(diagnostics, "_SPLIT_MIN_POINTS", 0 if on else 10**12)
        monkeypatch.setattr(diagnostics, "_available_cpus", lambda: 2)

    def test_split_terms_give_the_serial_bits(self, monkeypatch):
        """Shared between the caller and a worker, the F terms give the bits,
        the solve count and the CG count of the serial loop."""
        state, params, bath = make_v_state(14, grid2())
        depth = make_depth(params, state.zeta.data, bath)
        invert = diagnostics.invert_frakT
        callers = []

        def invert_counted(*args):
            callers.append(threading.get_ident())
            return invert(*args)

        monkeypatch.setattr(diagnostics, "invert_frakT", invert_counted)
        results = {}
        for on in (False, True):
            self._split(monkeypatch, on)
            callers.clear()
            session = SolverSession()
            f_val = energy_F(state, params, depth, 4, session=session)
            assert len(set(callers)) == (2 if on else 1)
            record = collect_record(state, params, bath, order=4)
            results[on] = (f_val, session.solves, session.total_iterations, record)
        assert results[True] == results[False]
        assert results[True][1] == 1 + len(multi_indices(2, 4))
        assert results[True][2] > 0

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failed_half_leaves_no_thread(self, monkeypatch, failing):
        """A solve that fails on either half of the split comes out of
        collect_record as its own error, after the worker has ended; a record
        that succeeds leaves no thread either."""
        self._split(monkeypatch, True)
        state, params, bath = make_v_state(15, grid2())
        invert = diagnostics.invert_frakT
        caller_solves = []

        def invert_failing(*args):
            if threading.current_thread() is not threading.main_thread():
                fails = failing == "worker"
            else:
                caller_solves.append(1)
                # the caller's 4th solve is its second F term, made during the split
                fails = failing == "caller" and len(caller_solves) == 4
            if fails:
                raise NonConvergenceError(f"{failing} failed", 1, 1.0)
            return invert(*args)

        before = threading.active_count()
        collect_record(state, params, bath, order=4)
        assert threading.active_count() == before
        monkeypatch.setattr(diagnostics, "invert_frakT", invert_failing)
        with pytest.raises(NonConvergenceError, match=f"{failing} failed"):
            collect_record(state, params, bath, order=4)
        assert threading.active_count() == before

    def test_record_validation(self):
        with pytest.raises(ValidationError, match="finite"):
            DiagnosticsRecord(0.0, np.nan, 1.0, 1.0, 1.0, 0.0, 1.0, 3)
        with pytest.raises(ValidationError, match="positive"):
            DiagnosticsRecord(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, -0.2, 3)

    def test_mass_equals_surface_integral(self):
        g = grid2()
        state, params, bath = make_v_state(12, g)
        rec = collect_record(state, params, bath, order=1)
        assert abs(rec.mass - g.integrate(state.zeta.data)) < 1e-15
