"""Model right-hand sides: fixed points, equivalent displays, variable maps."""
from __future__ import annotations

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import band_limited_scalar, band_limited_vector, tendency_args
from gnwave.errors import GridMismatchError, ValidationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import (
    FluidState,
    Formulation,
    ModelParams,
    VariableKind,
    make_depth,
    rhs_bp,
    rhs_gn_u,
    rhs_gn_v,
    rhs_sv,
    u_from_v,
    v_from_u,
)
from gnwave.operators import (
    BathymetryState,
    DepthState,
    EllipticSolveConfig,
    SolverSession,
    apply_frakT,
    dh_frakT,
    invert_frakT,
)
from gnwave.verify import skew_assembled_rhs


def grid1(n=64):
    return PeriodicGrid((n,), (2.0 * np.pi,))


def grid2(n=48):
    return PeriodicGrid((n, n), (2.0 * np.pi, 2.0 * np.pi))


def make_setup(seed, grid, kind, eps=0.7, beta=0.3, mu=0.8, amp=0.1,
               formulation=Formulation.GN_V):
    rng = np.random.default_rng(seed)
    params = ModelParams(epsilon=eps, beta=beta, mu=mu, formulation=formulation)
    b = band_limited_scalar(grid, rng, 2, 0.15)
    bath = BathymetryState(ScalarField(grid, b), beta)
    zeta = ScalarField(grid, band_limited_scalar(grid, rng, 3, amp))
    vel = VectorField(grid, band_limited_vector(grid, rng, 3, 2 * amp))
    state = FluidState(zeta, vel, kind, 0.0)
    return state, params, bath


class TestPointwiseIdentity:
    def test_u_dot_Tu_identity(self):
        # u·Tu = w²/2 − R − R_b underlies the compact-form rewriting;
        # checked symbolically in 1D with bathymetry.
        x = sp.symbols("x", real=True)
        h = 1 + sp.Rational(1, 10) * sp.sin(x)
        b = sp.Rational(3, 20) * sp.cos(x)
        u = sp.Rational(1, 5) * sp.sin(2 * x)
        beta = sp.Rational(3, 10)
        d = sp.diff(u, x)
        gb = beta * sp.diff(b, x)
        T = (
            -sp.diff(h**3 * d, x) / (3 * h)
            + (sp.diff(h**2 * gb * u, x) - h**2 * gb * d) / (2 * h)
            + gb**2 * u
        )
        R = u / (3 * h) * sp.diff(h**3 * d, x) + sp.Rational(1, 2) * h**2 * d**2
        Rb = -sp.Rational(1, 2) * (
            u / h * sp.diff(h**2 * gb * u, x) + h * gb * u * d + (gb * u) ** 2
        )
        w = gb * u - h * d
        assert sp.simplify(u * T - (w**2 / 2 - R - Rb)) == 0


class TestLakeAtRest:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_models_fix_rest(self, dim):
        g = grid1() if dim == 1 else grid2(32)
        rng = np.random.default_rng(0)
        b = band_limited_scalar(g, rng, 2, 0.2)
        bath = BathymetryState(ScalarField(g, b), 0.4)
        pu = ModelParams(epsilon=0.5, beta=0.4, mu=1.0, formulation=Formulation.GN_U)
        pv = ModelParams(epsilon=0.5, beta=0.4, mu=1.0, formulation=Formulation.GN_V)
        psv = ModelParams(epsilon=0.5, beta=0.4, mu=0.0, formulation=Formulation.SV)
        rest_u = FluidState.rest(g, VariableKind.U_VARIABLE)
        rest_v = FluidState.rest(g, VariableKind.V_VARIABLE)
        for dzeta, dvel in (
            rhs_gn_u(*tendency_args(rest_u, pu, bath)),
            rhs_gn_v(*tendency_args(rest_v, pv, bath)),
            rhs_bp(*tendency_args(rest_u, pu, bath)),
            rhs_sv(*tendency_args(rest_u, psv, bath)),
        ):
            assert np.max(np.abs(dzeta)) < 1e-14
            assert np.max(np.abs(dvel)) < 1e-14

    @given(seed=st.integers(0, 2**31 - 1), beta=st.floats(0.0, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_rest_fixed_point_property(self, seed, beta):
        g = grid1(32)
        rng = np.random.default_rng(seed)
        bath = BathymetryState(ScalarField(g, band_limited_scalar(g, rng, 2, 0.3)), beta)
        params = ModelParams(epsilon=1.0, beta=beta, mu=1.0, formulation=Formulation.GN_V)
        dz, dv = rhs_gn_v(*tendency_args(FluidState.rest(g), params, bath))
        assert np.max(np.abs(dz)) < 1e-14
        assert np.max(np.abs(dv)) < 1e-14


class TestDegenerations:
    def test_gn_u_mu_zero_is_sv(self):
        """At μ = 0 gn_u and bp are the hydrostatic tendency bit for bit and
        solve nothing, in 1-D and in 2-D over a varying bottom (β = 0.3)."""
        for g in (grid1(), grid2(32)):
            for rhs, form in ((rhs_gn_u, Formulation.GN_U), (rhs_bp, Formulation.BP)):
                state, params, bath = make_setup(
                    1, g, VariableKind.U_VARIABLE, mu=0.0, formulation=form
                )
                session = SolverSession()
                dz1, dv1 = rhs(*tendency_args(state, params, bath), session=session)
                dz2, dv2 = rhs_sv(*tendency_args(state, params, bath))
                assert session.total_iterations == 0
                assert session.solves == 0
                assert np.array_equal(dz1, dz2)
                assert np.array_equal(dv1, dv2)

    def test_sv_requires_mu_zero(self):
        with pytest.raises(ValidationError, match="mu = 0"):
            ModelParams(formulation=Formulation.SV, mu=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_scaling_parameters_must_be_finite_and_nonnegative(self, bad):
        """ε, β and μ of the model, the β of a bottom and the μ of the
        operators are refused with one message."""
        for name in ("epsilon", "beta", "mu"):
            with pytest.raises(ValidationError, match=f"{name} must be a finite real >= 0"):
                ModelParams(**{name: bad})
        g = grid1()
        with pytest.raises(ValidationError, match="beta must be a finite real >= 0"):
            BathymetryState(ScalarField.zeros(g), bad)
        depth = BathymetryState.flat(g).rest_depth
        u = np.ones((1,) + g.shape)
        for operator in (
            lambda: apply_frakT(depth, u, bad),
            lambda: invert_frakT(depth, u, bad),
            lambda: dh_frakT(depth, np.ones(g.shape), u, bad),
        ):
            with pytest.raises(ValidationError, match="mu must be a finite real >= 0"):
                operator()

    def test_beta_consistency_checked(self):
        g = grid1()
        state, params, bath = make_setup(3, g, VariableKind.U_VARIABLE)
        other = BathymetryState(bath.b, params.beta + 0.1)
        with pytest.raises(ValidationError, match="beta"):
            make_depth(params, state.zeta.data, other)


class TestCompactForm:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_vbis_equals_vter(self, dim):
        # the tendency against its compact skew form, assembled from the
        # variational derivatives: the two displays differ only through
        # unresolved aliasing tails, so the gap decays spectrally; N = 64
        # puts it well under 1e−9.  Both solve for u with the same settings.
        g = grid1(64) if dim == 1 else grid2(64)
        state, params, bath = make_setup(4, g, VariableKind.V_VARIABLE)
        dz1, dv1 = rhs_gn_v(*tendency_args(state, params, bath))
        dz2, dv2 = skew_assembled_rhs(state, params, bath, EllipticSolveConfig())
        assert np.max(np.abs(dz1 - dz2)) < 1e-13
        scale = max(float(np.max(np.abs(dv1))), 1e-30)
        assert np.max(np.abs(dv1 - dv2)) < 1e-9 * scale


class TestVorticity:
    def test_curl_law(self):
        g = grid2(48)
        state, params, bath = make_setup(5, g, VariableKind.V_VARIABLE)
        dz, dv = rhs_gn_v(*tendency_args(state, params, bath))
        u = u_from_v(state, params, bath).vel.data
        curl_v = g.curl(state.vel.data)
        expected = -params.epsilon * g.divergence(g.dealias(curl_v * u))
        got = g.curl(dv)
        scale = max(float(np.max(np.abs(got))), 1e-30)
        assert np.max(np.abs(got - expected)) < 1e-9 * scale

    def test_irrotational_stays_irrotational(self):
        g = grid2(48)
        rng = np.random.default_rng(6)
        params = ModelParams(epsilon=0.7, beta=0.3, mu=0.8)
        bath = BathymetryState(ScalarField(g, band_limited_scalar(g, rng, 2, 0.15)), 0.3)
        psi = band_limited_scalar(g, rng, 3, 0.1)
        state = FluidState(
            ScalarField(g, band_limited_scalar(g, rng, 3, 0.1)),
            VectorField(g, g.gradient(psi)),
            VariableKind.V_VARIABLE,
        )
        _, dv = rhs_gn_v(*tendency_args(state, params, bath))
        vnorm = g.norm_l2(dv)
        assert g.norm_l2(g.curl(dv)) < 1e-11 * max(vnorm, 1e-30)


class TestMassConservation:
    def test_all_models_divergence_form(self):
        g = grid2(32)
        state_u, params_u, bath = make_setup(
            7, g, VariableKind.U_VARIABLE, formulation=Formulation.GN_U
        )
        state_v, params_v, _ = make_setup(7, g, VariableKind.V_VARIABLE)
        sv_params = ModelParams(
            epsilon=0.7, beta=0.3, mu=0.0, formulation=Formulation.SV
        )
        for dzeta in (
            rhs_gn_u(*tendency_args(state_u, params_u, bath))[0],
            rhs_gn_v(*tendency_args(state_v, params_v, bath))[0],
            rhs_bp(*tendency_args(state_u, params_u, bath))[0],
            rhs_sv(*tendency_args(state_u, sv_params, bath))[0],
        ):
            assert abs(g.integrate(dzeta)) < 1e-13 * g.norm_l2(dzeta)


class TestVariableMaps:
    def test_zero_maps_to_zero(self):
        g = grid1()
        _, params, bath = make_setup(8, g, VariableKind.U_VARIABLE)
        state = FluidState(
            ScalarField(g, band_limited_scalar(g, np.random.default_rng(8), 3, 0.1)),
            VectorField.zeros(g),
            VariableKind.U_VARIABLE,
        )
        v_state = v_from_u(state, params, bath)
        assert np.max(np.abs(v_state.vel.data)) == 0.0
        assert v_state.kind is VariableKind.V_VARIABLE

    def test_flat_single_mode_multiplier(self):
        g = grid1()
        params = ModelParams(epsilon=0.5, beta=0.0, mu=0.8)
        bath = BathymetryState.flat(g)
        k = 3.0
        u = VectorField(g, np.cos(k * g.coords[0])[None, :])
        state = FluidState(ScalarField.zeros(g), u, VariableKind.U_VARIABLE)
        v_state = v_from_u(state, params, bath)
        assert np.max(np.abs(v_state.vel.data - (1 + params.mu * k**2 / 3) * u.data)) < 1e-12

    def test_round_trip(self):
        g = grid2(32)
        state, params, bath = make_setup(
            9, g, VariableKind.U_VARIABLE, formulation=Formulation.GN_U
        )
        cfg = EllipticSolveConfig(rel_tolerance=1e-12)
        v_state = v_from_u(state, params, bath)
        back = u_from_v(v_state, params, bath, cfg)
        err = g.norm_l2(back.vel.data - state.vel.data)
        assert err <= 10 * cfg.rel_tolerance * g.norm_l2(state.vel.data)
        assert back.kind is VariableKind.U_VARIABLE
        assert back.time == state.time


class TestFluidState:
    def test_fields_on_one_grid(self):
        with pytest.raises(GridMismatchError, match="one grid"):
            FluidState(
                ScalarField.zeros(grid1(32)), VectorField.zeros(grid1(16)), VariableKind.V_VARIABLE
            )

    @pytest.mark.parametrize("time", [np.nan, np.inf])
    def test_time_must_be_finite(self, time):
        g = grid1(16)
        with pytest.raises(ValidationError, match="time must be finite"):
            FluidState(ScalarField.zeros(g), VectorField.zeros(g), VariableKind.V_VARIABLE, time)


class TestBoussinesqPeregrine:
    def test_linear_dispersion_multiplier(self):
        g = grid1()
        params = ModelParams(epsilon=0.0, beta=0.0, mu=1.0, formulation=Formulation.BP)
        bath = BathymetryState.flat(g)
        k = 4.0
        zeta = ScalarField(g, 0.01 * np.cos(k * g.coords[0]))
        state = FluidState(zeta, VectorField.zeros(g), VariableKind.U_VARIABLE)
        _, du = rhs_bp(*tendency_args(state, params, bath))
        expected = -g.gradient(zeta.data) / (1 + params.mu * k**2 / 3)
        assert np.max(np.abs(du - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_gap_to_gn_u_linear_in_eps(self):
        g = grid1()
        rng = np.random.default_rng(10)
        beta, mu = 0.3, 0.5
        b = band_limited_scalar(g, rng, 2, 0.15)
        zeta = band_limited_scalar(g, rng, 3, 0.3)
        u = band_limited_vector(g, rng, 3, 0.3)
        gaps = {}
        for eps in (0.2, 0.1):
            params = ModelParams(epsilon=eps, beta=beta, mu=mu, formulation=Formulation.GN_U)
            bath = BathymetryState(ScalarField(g, b), beta)
            state = FluidState(ScalarField(g, zeta), VectorField(g, u), VariableKind.U_VARIABLE)
            _, du_gn = rhs_gn_u(*tendency_args(state, params, bath))
            _, du_bp = rhs_bp(*tendency_args(state, params, bath))
            gaps[eps] = g.norm_l2(du_gn - du_bp)
        ratio = gaps[0.2] / gaps[0.1]
        assert 1.5 < ratio < 2.7

    def test_rest_depth_is_one_object_per_bottom(self):
        """The frozen operator depth is cached on its bottom and is the still
        water column 1 − βb, bit for bit, as make_depth forms it at ζ = 0."""
        for grid in (grid1(), grid2()):
            _, params, bath = make_setup(11, grid, VariableKind.U_VARIABLE)
            rest = bath.rest_depth
            assert bath.rest_depth is rest and rest.bath is bath
            assert BathymetryState(bath.b, bath.beta).rest_depth is not rest
            for ref in (
                DepthState(bath, 1.0 - bath.beta * bath.b.data),
                make_depth(params, np.zeros(grid.shape), bath),
            ):
                for attr in ("h", "h2", "h3"):
                    assert np.array_equal(getattr(rest, attr), getattr(ref, attr))


class TestSolveStats:
    def test_stats_populated(self):
        g = grid1()
        state, params, bath = make_setup(12, g, VariableKind.V_VARIABLE)
        zeta, vel, _, depth = tendency_args(state, params, bath)
        session = SolverSession()
        rhs_gn_v(zeta, vel, params, depth, session=session)
        assert session.total_iterations >= 1
        hv = g.dealias(depth.h * vel)
        residual = apply_frakT(depth, session.last_solution, params.mu) - hv
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(hv)

    def test_depth_state_formula(self):
        g = grid1()
        state, params, bath = make_setup(13, g, VariableKind.V_VARIABLE)
        depth = make_depth(params, state.zeta.data, bath)
        manual = 1 + params.epsilon * state.zeta.data - params.beta * bath.b.data
        assert np.allclose(depth.h, manual, atol=0)

    def test_gn_v_transform_count(self, monkeypatch):
        """One 1-D gn_v tendency over a flat bottom makes 2 transforms before
        its solve (the right-hand side's projection) and 6 after it: one
        stacked forward of h·u, ζ and the potential, 4 in R, and one inverse."""
        from gnwave import models

        g = grid1()
        state, params, bath = make_setup(14, g, VariableKind.V_VARIABLE, beta=0.0)
        zeta, vel, _, depth = tendency_args(state, params, bath)
        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(PeriodicGrid, name)

            def counted(self, *args, transform=transform, **kwargs):
                calls.append(1)
                return transform(self, *args, **kwargs)

            monkeypatch.setattr(PeriodicGrid, name, counted)
        solve, marks = models.invert_frakT, []

        def marked(*args, **kwargs):
            marks.append(len(calls))
            result = solve(*args, **kwargs)
            marks.append(len(calls))
            return result

        monkeypatch.setattr(models, "invert_frakT", marked)
        rhs_gn_v(zeta, vel, params, depth)
        assert params.epsilon > 0.0 and params.mu > 0.0
        assert (marks[0], len(calls) - marks[1]) == (2, 6)
