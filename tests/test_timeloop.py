"""Time integration: accuracy orders, invariants, guards, emission policy."""
import tracemalloc

import numpy as np
import pytest

from gnwave.diagnostics import collect_record
from gnwave.errors import BlowUpError, CoercivityViolationError, ValidationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import (
    FluidState,
    Formulation,
    ModelParams,
    VariableKind,
    rhs_gn_u,
    rhs_gn_v,
    rhs_sv,
)
from gnwave.operators import BathymetryState
from gnwave.regularization import MollifierSpec
from gnwave.timeloop import (
    CollectingSinks,
    IntegrationConfig,
    RunReport,
    cfl_time_step,
    run,
    step_schedule,
)

from _helpers import (
    advance_two_arrays,
    band_limited_scalar,
    band_limited_vector,
    fv_shallow_water,
    smooth_bathymetry,
    split_tendency,
    tendency_args,
)


def gaussian_pulse(grid, amplitude, width, center=None):
    x = grid.coords[0]
    c = center if center is not None else grid.lengths[0] / 2
    z = amplitude * np.exp(-(((x - c) / width) ** 2) / 2)
    return z - z.mean()


def pulse_state(grid, amplitude=0.5, width=0.5):
    z = gaussian_pulse(grid, amplitude, width)
    return FluidState(ScalarField(grid, z), VectorField.zeros(grid), VariableKind.V_VARIABLE)


class TestIntegrationConfig:
    def test_dt_must_be_positive(self):
        """Zero or negative dt is rejected."""
        with pytest.raises(ValidationError, match="positive"):
            IntegrationConfig(dt=0.0, t_end=1.0)

    def test_t_end_must_be_finite(self):
        """Infinite target time is rejected."""
        with pytest.raises(ValidationError, match="finite"):
            IntegrationConfig(dt=0.1, t_end=np.inf)

    def test_unknown_scheme(self):
        """Only rk4 and rk3_ssp are accepted."""
        with pytest.raises(ValidationError, match="unknown scheme"):
            IntegrationConfig(dt=0.1, t_end=1.0, scheme="euler")

    def test_diag_stride_bounds(self):
        """Diagnostics stride must be an integer ≥ 1: a bool is refused, a numpy
        integer accepted."""
        with pytest.raises(ValidationError, match="diag_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, diag_stride=0)
        with pytest.raises(ValidationError, match="diag_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, diag_stride=1.5)
        with pytest.raises(ValidationError, match="diag_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, diag_stride=True)
        assert IntegrationConfig(dt=0.1, t_end=1.0, diag_stride=np.int64(2)).diag_stride == 2

    def test_snapshot_stride_bounds(self):
        """Snapshot stride must be an integer ≥ 0 (not a bool); zero disables
        snapshots."""
        with pytest.raises(ValidationError, match="snapshot_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, snapshot_stride=-1)
        with pytest.raises(ValidationError, match="snapshot_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, snapshot_stride=True)
        IntegrationConfig(dt=0.1, t_end=1.0, snapshot_stride=0)
        cfg = IntegrationConfig(dt=0.1, t_end=1.0, snapshot_stride=np.int64(2))
        assert cfg.snapshot_stride == 2


class TestCflAdvisory:
    def test_rest_state_bound(self):
        """At rest the bound is half a spacing per unit gravity-wave speed."""
        grid = PeriodicGrid((64,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5)
        state = FluidState.rest(grid)
        bound = cfl_time_step(state, params, BathymetryState.flat(grid))
        assert bound == pytest.approx(0.5 * grid.spacings[0])

    def test_oversized_step_warns(self):
        """A dt beyond the advisory bound warns but the run continues."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5)
        state = pulse_state(grid, amplitude=1e-3)
        icfg = IntegrationConfig(dt=0.5, t_end=0.5)
        with pytest.warns(UserWarning, match="advisory"):
            report = run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        assert report.termination == "completed"

    def test_floor_and_advisory_share_the_initial_depth(self, monkeypatch):
        """Up to the first step, a run builds one water column of the initial
        state for the depth floor and the advisory, and the initial record
        builds its own."""
        from gnwave import timeloop
        from gnwave.operators import DepthState

        built, at_first_step = [], []
        init, advance = DepthState.__post_init__, timeloop._Stepper.advance

        def counted(depth):
            built.append(depth)
            init(depth)

        def first_step(stepper, *args, **kwargs):
            if not at_first_step:
                at_first_step.append(len(built))
            return advance(stepper, *args, **kwargs)

        monkeypatch.setattr(DepthState, "__post_init__", counted)
        monkeypatch.setattr(timeloop._Stepper, "advance", first_step)
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5)
        icfg = IntegrationConfig(dt=0.05, t_end=0.05)
        for sinks, expected in ((CollectingSinks(), 2), (None, 1)):
            built.clear()
            at_first_step.clear()
            state = pulse_state(grid, amplitude=1e-3)
            run(state, params, BathymetryState.flat(grid), icfg, sinks=sinks, diag_order=0)
            assert at_first_step == [expected]


class TestRestStates:
    @pytest.mark.parametrize("formulation", [Formulation.GN_V, Formulation.GN_U])
    def test_rest_is_fixed_point_over_bathymetry(self, formulation):
        """A lake at rest over a bump stays exactly at rest."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.25, mu=0.6, formulation=formulation)
        bath = smooth_bathymetry(grid, np.random.default_rng(3), beta=0.25)
        state = FluidState.rest(grid, params.expected_kind)
        icfg = IntegrationConfig(dt=0.05, t_end=0.25, diag_stride=10)
        report = run(state, params, bath, icfg, diag_order=0)
        assert report.steps == 5
        assert np.array_equal(report.final_state.zeta.data, np.zeros(grid.shape))
        assert np.array_equal(report.final_state.vel.data, np.zeros((1, *grid.shape)))

    @pytest.mark.parametrize("formulation", [Formulation.BP, Formulation.SV])
    def test_rest_is_fixed_point_reduced_models(self, formulation):
        """The simplified models share the rest fixed point."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        mu = 0.0 if formulation is Formulation.SV else 0.6
        params = ModelParams(epsilon=0.2, beta=0.25, mu=mu, formulation=formulation)
        bath = smooth_bathymetry(grid, np.random.default_rng(3), beta=0.25)
        state = FluidState.rest(grid, params.expected_kind)
        icfg = IntegrationConfig(dt=0.05, t_end=0.25)
        report = run(state, params, bath, icfg, diag_order=0)
        assert report.final_state.max_abs() == 0.0


class TestLinearWaveAccuracy:
    """Single-mode linear wave advanced one full period against closed form."""

    def _relative_error(self, n_steps):
        grid = PeriodicGrid((64,), (2 * np.pi,))
        x = grid.coords[0]
        k, mu, a = 3, 0.9, 1e-3
        omega = k / np.sqrt(1 + mu * k * k / 3)
        period = 2 * np.pi / omega
        params = ModelParams(epsilon=0.0, beta=0.0, mu=mu)
        z0 = a * np.cos(k * x)
        v0 = (1 + mu * k * k / 3) * (omega / k) * z0
        state = FluidState(
            ScalarField(grid, z0), VectorField(grid, v0[None]), VariableKind.V_VARIABLE
        )
        icfg = IntegrationConfig(dt=period / n_steps, t_end=period, diag_stride=10**6)
        report = run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        err = report.final_state.zeta.data - z0
        return float(np.sqrt(grid.integrate(err**2) / grid.integrate(z0**2)))

    def test_period_accuracy(self):
        """200 steps per period reproduce the wave to a few 1e-8 relative."""
        assert self._relative_error(200) <= 5e-7

    def test_fourth_order_in_dt(self):
        """Halving dt shrinks the period error sixteenfold."""
        ratio = self._relative_error(100) / self._relative_error(200)
        assert 10.0 <= ratio <= 24.0


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestSelfConvergence:
    """Nonlinear pulse; successive dt-halvings bracket the scheme order."""

    def _final(self, scheme, dt):
        grid = PeriodicGrid((64,), (2 * np.pi,))
        x = grid.coords[0]
        z0 = 0.8 * np.exp(-8 * (x - np.pi) ** 2)
        z0 -= z0.mean()
        state = FluidState(
            ScalarField(grid, z0), VectorField.zeros(grid), VariableKind.V_VARIABLE
        )
        params = ModelParams(epsilon=0.3, beta=0.0, mu=0.7)
        icfg = IntegrationConfig(dt=dt, t_end=2.0, scheme=scheme, diag_stride=10**6)
        report = run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        return grid, report.final_state.zeta.data

    def _ratio(self, scheme):
        grid, a = self._final(scheme, 0.08)
        _, b = self._final(scheme, 0.04)
        _, c = self._final(scheme, 0.02)
        e1 = np.sqrt(grid.integrate((a - b) ** 2))
        e2 = np.sqrt(grid.integrate((b - c) ** 2))
        return e1 / e2

    def test_rk4_is_fourth_order(self):
        """State self-convergence ratio sits at 2⁴ within 30%."""
        assert 11.2 <= self._ratio("rk4") <= 20.8

    def test_rk3_is_third_order(self):
        """The SSP scheme self-converges at 2³."""
        assert 5.5 <= self._ratio("rk3_ssp") <= 11.0


class TestConservation:
    def test_mass_is_conserved_long_run(self):
        """Mean surface displacement drifts below 1e-12 relative over 500 steps."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        z0 = 0.3 + gaussian_pulse(grid, 0.4, 0.6)
        state = FluidState(
            ScalarField(grid, z0), VectorField.zeros(grid), VariableKind.V_VARIABLE
        )
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        sinks = CollectingSinks()
        icfg = IntegrationConfig(dt=0.01, t_end=5.0, diag_stride=100)
        run(state, params, BathymetryState.flat(grid), icfg, sinks=sinks, diag_order=0)
        masses = np.array([rec.mass for rec in sinks.records])
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * abs(masses[0])

    def test_gradient_velocity_stays_irrotational(self):
        """Zero initial curl is preserved to round-off in two dimensions."""
        grid = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
        X, Y = grid.coords
        z0 = 0.4 * np.exp(-3 * ((X - np.pi) ** 2 + (Y - np.pi) ** 2))
        z0 -= z0.mean()
        phi = 0.5 * np.sin(X) * np.cos(Y)
        v0 = np.stack(grid.gradient(phi))
        state = FluidState(
            ScalarField(grid, z0), VectorField(grid, v0), VariableKind.V_VARIABLE
        )
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        sinks = CollectingSinks()
        icfg = IntegrationConfig(dt=0.02, t_end=0.2, diag_stride=1)
        report = run(state, params, BathymetryState.flat(grid), icfg, sinks=sinks, diag_order=1)
        scale = 1.0 + float(np.sqrt(grid.integrate(np.sum(report.final_state.vel.data**2, axis=0))))
        assert all(rec.vorticity_l2 <= 1e-11 * scale for rec in sinks.records)


class TestDealiasedBand:
    """Why stage states need no projection: the tendencies that the stepper
    uses unprojected stay in the dealiased band."""

    @staticmethod
    def _out_of_band(grid, f):
        spec = np.abs(grid.rfft(f))
        return float(np.max(spec * ~grid.dealias_mask) / np.max(spec))

    def _state(self, grid, kind, seed):
        rng = np.random.default_rng(seed)
        zeta = band_limited_scalar(grid, rng, grid.shape[0] // 4, 0.2)
        vel = band_limited_vector(grid, rng, grid.shape[0] // 4, 0.2)
        return FluidState(ScalarField(grid, zeta), VectorField(grid, vel), kind), rng

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gn_v_and_sv_tendencies_stay_in_band(self, dim):
        grid = PeriodicGrid((32,) * dim, (2 * np.pi,) * dim)
        state, rng = self._state(grid, VariableKind.V_VARIABLE, 20 + dim)
        bath = smooth_bathymetry(grid, rng, beta=0.3)
        params = ModelParams(epsilon=0.5, beta=0.3, mu=0.5)
        dz, dv = split_tendency(rhs_gn_v(*tendency_args(state, params, bath)))
        assert self._out_of_band(grid, dz) < 1e-14
        assert self._out_of_band(grid, dv) < 1e-14
        sv = ModelParams(epsilon=0.5, beta=0.3, mu=0.0, formulation=Formulation.SV)
        u_state = FluidState(state.zeta, state.vel, VariableKind.U_VARIABLE)
        for f in rhs_sv(*tendency_args(u_state, sv, bath)):
            assert self._out_of_band(grid, f) < 1e-14

    def test_gn_u_solution_leaks_out_of_band(self):
        """The CG solution is not band-limited, so the stepper projects it."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        state, rng = self._state(grid, VariableKind.U_VARIABLE, 30)
        bath = smooth_bathymetry(grid, rng, beta=0.3)
        params = ModelParams(epsilon=0.5, beta=0.3, mu=0.5, formulation=Formulation.GN_U)
        dz, du = split_tendency(rhs_gn_u(*tendency_args(state, params, bath)))
        assert self._out_of_band(grid, dz) < 1e-14
        assert self._out_of_band(grid, du) > 1e-12


class TestStageSolves:
    def test_warm_started_stage_solves_meet_the_tolerance(self, monkeypatch):
        """Every RK4 stage solve keeps ‖𝔗u − hv‖ ≤ rel_tolerance·‖hv‖, warm start
        and all; from a start time of 10⁶·dt the stage guesses engage as from
        0, as no float time enters their matching."""
        self._check_stage_solves(monkeypatch, "rk4", 4)
        monkeypatch.undo()
        self._check_stage_solves(monkeypatch, "rk4", 4, start=1e6)

    def test_warm_started_rk3_stage_solves_meet_the_tolerance(self, monkeypatch):
        """The same for SSP-RK3, whose session keeps three stage indices."""
        self._check_stage_solves(monkeypatch, "rk3_ssp", 3)

    def test_warm_started_stage_solves_over_a_bottom_meet_the_tolerance(self, monkeypatch):
        """The RK4 case over the cosine bottom 0.3·cos x cos y at β = 0.4, where
        CG preconditions with the depth-scaled flat inverse."""
        grid = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
        b = 0.3 * np.cos(grid.coords[0]) * np.cos(grid.coords[1])
        self._check_stage_solves(monkeypatch, "rk4", 4, BathymetryState(ScalarField(grid, b), 0.4))

    def test_run_builds_each_flat_inverse_once(self, monkeypatch):
        """The stage and record solves of a run take P̄ from its bottom, which
        builds it once per distinct (h̄, μ)."""
        from gnwave import operators

        built = []
        build = operators._flat_preconditioner
        monkeypatch.setattr(
            operators, "_flat_preconditioner", lambda *key: built.append(key) or build(*key)
        )
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        bath = BathymetryState.flat(grid)
        icfg = IntegrationConfig(dt=0.02, t_end=0.2, diag_stride=2)
        report = run(pulse_state(grid), params, bath, icfg, sinks=CollectingSinks(), diag_order=1)
        assert report.steps == 10 and report.record_iterations > 0
        assert len(built) == len(set(built))
        assert bath.flat_inverse.cache_info().currsize == len(built)

    @staticmethod
    def _check_stage_solves(monkeypatch, scheme, stages, bath=None, start=0.0):
        """12 full steps and a shorter final one from the time ``start``·dt,
        each stage solve checked, over ``bath`` (a flat bottom when None).

        The per-stage guess engages once the stage's in-step guess has left
        an error of its current weight in each of the three previous steps,
        and stays off for the shorter step.  Step 1 leaves no such error for
        the first stage, whose right-hand side is zero, nor for the second,
        the first solve, which has no guess.  Its other stages start from a
        latest solution without a distinct earlier time (weight 0).  That is
        the weight RK4's third stage keeps, as it shares the second's time;
        RK4's last stage and every SSP-RK3 stage later take another weight
        (RK4 1; SSP-RK3 −1, 2, −1/2).  So RK4's third stage engages from
        step 4, and every other stage from step 5.
        """
        from gnwave import models, operators
        from gnwave.operators import EllipticSolveConfig, SolverSession, apply_frakT

        grid = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
        relative = []
        solve = models.invert_frakT

        def checked(depth, rhs, mu, cfg=None, session=None):
            out = solve(depth, rhs, mu, cfg, session)
            size = grid.norm_l2(rhs)
            if size > 0.0:
                back = apply_frakT(depth, out.u, mu)
                relative.append(grid.norm_l2(back - rhs) / size)
            return out

        engaged = {}
        initial_guess = SolverSession.initial_guess

        def watched(session, shape):
            guess = initial_guess(session, shape)
            if guess is not None:  # the pending entry ends with the usable count
                engaged[session.stage] = session._pending[-1] >= operators._ENGAGE
            return guess

        monkeypatch.setattr(models, "invert_frakT", checked)
        monkeypatch.setattr(SolverSession, "initial_guess", watched)
        zeta = 0.1 * np.exp(-2.0 * sum((c - np.pi) ** 2 for c in grid.coords))
        dt = 0.08
        state = FluidState(
            ScalarField(grid, zeta), VectorField.zeros(grid), VariableKind.V_VARIABLE, start * dt
        )
        if bath is None:
            bath = BathymetryState.flat(grid)
        params = ModelParams(epsilon=0.1, beta=bath.beta, mu=0.5)
        icfg = IntegrationConfig(
            dt=dt, t_end=(start + 12.5) * dt, scheme=scheme, diag_stride=10**6
        )
        cfg = EllipticSolveConfig(rel_tolerance=1e-11)
        report = run(state, params, bath, icfg, cfg, diag_order=0)
        assert report.steps == 13
        assert len(relative) == stages * 13 - 1  # the first stage starts from rest
        assert max(relative) <= 1.001e-11
        for (index, n, _, step_dt), on in engaged.items():
            if step_dt != dt:
                assert n == 13 and not on
            else:
                assert on == (n >= (4 if (scheme, index) == ("rk4", 2) else 5)), (index, n)
        assert len(engaged) == stages * 13 - 2  # the first two solves find no earlier solution

    def test_stage_guess_cuts_soliton_iterations(self, monkeypatch):
        """On the soliton, from step 6 on, the per-stage guess needs at most 60%
        of the CG iterations that the guess over stage times alone needs."""
        from gnwave import models, operators
        from gnwave.operators import EllipticSolveConfig
        from gnwave.solitary import solitary_wave_state

        grid = PeriodicGrid((256,), (50.0,))
        params = ModelParams(epsilon=1.0, mu=1.0)
        bath = BathymetryState.flat(grid)
        state = solitary_wave_state(grid, 0.2, params)
        dt = cfl_time_step(state, params, bath) / 4.0
        icfg = IntegrationConfig(dt=dt, t_end=12 * dt, diag_stride=10**6)
        cfg = EllipticSolveConfig(rel_tolerance=1e-8)
        solve = models.invert_frakT
        iterations = []

        def counted(*args, **kwargs):
            out = solve(*args, **kwargs)
            iterations.append(out.iterations)
            return out

        monkeypatch.setattr(models, "invert_frakT", counted)

        def late_mean():
            iterations.clear()
            run(state, params, bath, icfg, cfg, diag_order=0)
            assert len(iterations) == 4 * 12
            return np.mean(iterations[4 * 5 :])

        per_stage = late_mean()
        # no history reaches more usable errors than it keeps
        monkeypatch.setattr(operators, "_ENGAGE", len(operators._EXTRAPOLATIONS) + 1)
        in_time = late_mean()
        assert per_stage <= 0.6 * in_time

    def test_stage_solve_counts_its_usable_errors_once(self, monkeypatch):
        """Each gn_v stage solve that finds an earlier solution counts its
        stage's usable errors once, and that count both chooses the guess and
        scores the candidates."""
        from gnwave import models
        from gnwave.operators import _StageErrors
        from gnwave.solitary import solitary_wave_state

        grid = PeriodicGrid((64,), (50.0,))
        params = ModelParams(epsilon=1.0, mu=1.0)
        bath = BathymetryState.flat(grid)
        state = solitary_wave_state(grid, 0.2, params)
        dt = cfl_time_step(state, params, bath) / 4.0
        icfg = IntegrationConfig(dt=dt, t_end=8 * dt, diag_stride=10**6)
        solve, usable = models.invert_frakT, _StageErrors.usable
        solves, counts = [], []

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        def counted_usable(*args, **kwargs):
            counts.append(1)
            return usable(*args, **kwargs)

        monkeypatch.setattr(models, "invert_frakT", counted_solve)
        monkeypatch.setattr(_StageErrors, "usable", counted_usable)
        run(state, params, bath, icfg, diag_order=0)
        assert len(solves) == 4 * 8
        assert len(counts) == len(solves) - 1  # the first solve finds no earlier solution


def _stacked_case(case: str):
    """(initial state, params, bottom, mollifier) of a stacked-step case."""
    if case == "gn_v_2d_bottom_mollified":
        grid = PeriodicGrid((16, 16), (2 * np.pi, 2 * np.pi))
        rng = np.random.default_rng(5)
        bath = smooth_bathymetry(grid, rng, beta=0.3)
        params = ModelParams(epsilon=0.3, beta=0.3, mu=0.5)
        zeta = band_limited_scalar(grid, rng, 3, 0.1)
        vel = band_limited_vector(grid, rng, 3, 0.1)
        state = FluidState(ScalarField(grid, zeta), VectorField(grid, vel), VariableKind.V_VARIABLE)
        return state, params, bath, MollifierSpec(iota=0.2, profile="smooth_bump")
    grid = PeriodicGrid((32,), (2 * np.pi,))
    form = Formulation(case.split("_1d")[0])
    flat = form is Formulation.GN_V
    bath = BathymetryState.flat(grid) if flat else smooth_bathymetry(grid, np.random.default_rng(6))
    params = ModelParams(
        epsilon=0.3,
        beta=bath.beta,
        mu=0.0 if form is Formulation.SV else 0.5,
        formulation=form,
    )
    rng = np.random.default_rng(7)
    zeta = gaussian_pulse(grid, 0.2, 0.6)
    vel = band_limited_vector(grid, rng, 3, 0.05)
    state = FluidState(ScalarField(grid, zeta), VectorField(grid, vel), params.expected_kind)
    return state, params, bath, MollifierSpec()


_STACKED_CASES = [
    "gn_v_1d_flat", "gn_v_2d_bottom_mollified", "gn_u_1d_bump", "bp_1d_bump", "sv_1d_bump"
]


class TestStackedStep:
    """The stepper carries a state and each stage tendency as one stacked
    ``(1 + dim, *shape)`` array; ``_helpers.advance_two_arrays`` is the step
    on two arrays that it replaced."""

    @staticmethod
    def _steppers(case: str, scheme: str, dt: float, t_end: float):
        from gnwave.models import make_depth
        from gnwave.operators import SolverSession
        from gnwave.timeloop import _Stepper

        state, params, bath, mollifier = _stacked_case(case)
        icfg = IntegrationConfig(dt=dt, t_end=t_end, scheme=scheme, mollifier=mollifier)
        depth = make_depth(params, state.zeta.data, bath)
        steppers = [
            _Stepper(state, params, bath, icfg, None, SolverSession(), depth) for _ in range(2)
        ]
        grid = state.grid
        y = grid.dealias(np.concatenate((state.zeta.data[None], state.vel.data)))
        return steppers, icfg, y

    @pytest.mark.parametrize("scheme", ["rk4", "rk3_ssp"])
    @pytest.mark.parametrize("case", _STACKED_CASES)
    def test_matches_the_two_array_step_bit_for_bit(self, case, scheme):
        """Over 12 steps and a shorter final one, every step result equals
        the two-array step's bit for bit, and so do the CG iterations."""
        dt = 0.02
        (stacked, pair), icfg, y = self._steppers(case, scheme, dt, 12.5 * dt)
        z, v = y[0].copy(), y[1:].copy()
        n_steps, steps = step_schedule(icfg, 0.0)
        t = 0.0
        for k, (step_dt, t_next) in enumerate(steps, start=1):
            y = stacked.advance(y, k, t, step_dt, t_next)
            z, v = advance_two_arrays(pair, z, v, k, t, step_dt, t_next)
            assert y.shape == (1 + z.ndim,) + z.shape
            assert np.array_equal(y[0], z) and np.array_equal(y[1:], v), k
            t = t_next
        assert n_steps == 13 and step_dt == pytest.approx(0.5 * dt)
        assert stacked.session.total_iterations == pair.session.total_iterations
        if case.split("_1d")[0] != "sv":
            assert stacked.session.total_iterations > 0

    @pytest.mark.parametrize("row", [0, 1], ids=["surface", "velocity"])
    @pytest.mark.parametrize("scheme", ["rk4", "rk3_ssp"])
    def test_non_finite_stage_input_raises_as_before(self, monkeypatch, scheme, row):
        """A NaN in the tendency of stage index 1 of step 3, in either field,
        raises BlowUpError at the next stage's time, with the two-array
        step's message and time."""
        from gnwave import timeloop

        plain = timeloop.rhs_gn_v_mollified

        def poisoned(*args):
            k = plain(*args)
            if args[6].stage[:2] == (1, 3):
                k[row, 5] = np.nan
            return k

        monkeypatch.setattr(timeloop, "rhs_gn_v_mollified", poisoned)
        dt = 0.02
        (stacked, pair), icfg, y = self._steppers("gn_v_1d_flat", scheme, dt, 12.5 * dt)
        z, v = y[0].copy(), y[1:].copy()
        raised = []
        for advance, fields in ((stacked.advance, (y,)), (advance_two_arrays, (pair, z, v))):
            t = 0.0
            with pytest.raises(BlowUpError) as excinfo:
                for k, (step_dt, t_next) in enumerate(step_schedule(icfg, 0.0)[1], start=1):
                    out = advance(*fields, k, t, step_dt, t_next)
                    fields = (out,) if len(fields) == 1 else (pair, *out)
                    t = t_next
            raised.append((str(excinfo.value), excinfo.value.time))
        assert raised[0] == raised[1]
        assert raised[0][1] == 2 * dt + 0.5 * dt  # stage 2 sits at offset ½ in both
        assert "nan" in raised[0][0]

    def test_gn_v_step_transform_count(self, monkeypatch):
        """A 1-D gn_v RK4 step makes 42 transforms outside its solves: per
        stage 2 for the water column's powers and 8 in the tendency
        (``test_gn_v_transform_count``), and 2 for the step result's
        projection."""
        from gnwave import models

        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(PeriodicGrid, name)

            def counted(self, *args, transform=transform, **kwargs):
                calls.append(1)
                return transform(self, *args, **kwargs)

            monkeypatch.setattr(PeriodicGrid, name, counted)
        solve, in_solves = models.invert_frakT, []

        def marked(*args, **kwargs):
            before = len(calls)
            result = solve(*args, **kwargs)
            in_solves.append(len(calls) - before)
            return result

        monkeypatch.setattr(models, "invert_frakT", marked)
        (stepper, _), _, y = self._steppers("gn_v_1d_flat", "rk4", 0.02, 0.02)
        calls.clear()
        stepper.advance(y, 1, 0.0, 0.02, 0.02)
        assert len(in_solves) == 4
        assert len(calls) - sum(in_solves) == 42


class TestShallowWaterReference:
    def test_matches_finite_volume_solution(self):
        """The μ=0 model agrees with an independent finite-volume solver to 1%."""
        grid = PeriodicGrid((256,), (2 * np.pi,))
        x = grid.coords[0]
        eps, t_end = 0.5, 0.25
        params = ModelParams(epsilon=eps, beta=0.0, mu=0.0, formulation=Formulation.SV)
        z0 = 0.4 * np.exp(-(((x - np.pi) / 0.4) ** 2) / 2)
        state = FluidState(
            ScalarField(grid, z0), VectorField.zeros(grid), VariableKind.U_VARIABLE
        )
        icfg = IntegrationConfig(dt=0.004, t_end=t_end, diag_stride=10**6)
        report = run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        h_spectral = 1 + eps * report.final_state.zeta.data

        cells = 4096
        dx = grid.lengths[0] / cells
        xf = (np.arange(cells) + 0.5) * dx
        h0 = 1 + eps * 0.4 * np.exp(-(((xf - np.pi) / 0.4) ** 2) / 2)
        h_fv, _ = fv_shallow_water(h0, np.zeros(cells), dx, t_end)
        h_ref = np.interp(x, xf, h_fv, period=grid.lengths[0])
        gap = np.sqrt(np.mean((h_spectral - h_ref) ** 2))
        assert gap <= 1e-2 * np.sqrt(np.mean((h_ref - 1) ** 2))


def listed_schedule(icfg, t0):
    """Reference: the steps written out as a list, full steps ending at
    ``t0 + k·dt``, then the shorter final step, if any, ending at ``t_end``."""
    span = icfg.t_end - t0
    n_full = max(0, int(np.floor(span / icfg.dt * (1.0 + 1e-12))))
    steps = [(icfg.dt, t0 + k * icfg.dt) for k in range(1, n_full + 1)]
    remainder = span - n_full * icfg.dt
    if remainder > 1e-9 * icfg.dt:
        steps.append((remainder, icfg.t_end))
    return steps


class TestStepSchedule:
    @pytest.mark.parametrize(
        "dt, t0, t_end",
        [
            (0.01, 0.0, 0.1),  # whole steps
            (0.01, 0.0, 0.073),  # a shorter final step
            (0.1, 0.0, 0.3),  # 3 steps overshoot 0.3 by round-off: no final step
            (0.3, 0.0, 0.9),  # 3 steps fall 1e-16 short of 0.9: no final step
            (0.02, 0.625, 1.0),  # a later start
            (0.01, 0.0, 0.0),  # no step
            (0.01, 0.5, 0.2),  # t_end before t0: no step
        ],
    )
    def test_steps_match_the_listed_schedule(self, dt, t0, t_end):
        """The count and every ``(dt, t_next)`` equal the listed form bit for bit."""
        icfg = IntegrationConfig(dt=dt, t_end=t_end)
        count, steps = step_schedule(icfg, t0)
        listed = listed_schedule(icfg, t0)
        assert count == len(listed)
        assert list(steps) == listed

    def test_count_takes_no_memory_per_step(self):
        """Counting and walking a million steps traces under 1 MB; a list of
        them takes 88 MB."""
        icfg = IntegrationConfig(dt=1e-6, t_end=1.0)
        tracemalloc.start()
        try:
            count, steps = step_schedule(icfg, 0.0)
            for _ in steps:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 10**6
        assert peak < 2**20


class TestEmissionPolicy:
    def _small_run(self, **kwargs):
        grid = PeriodicGrid((16,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.0, formulation=Formulation.SV)
        state = FluidState(
            ScalarField(grid, gaussian_pulse(grid, 0.1, 0.8)),
            VectorField.zeros(grid),
            VariableKind.U_VARIABLE,
        )
        sinks = CollectingSinks()
        icfg = IntegrationConfig(dt=0.01, **kwargs)
        report = run(state, params, BathymetryState.flat(grid), icfg, sinks=sinks, diag_order=0)
        return report, sinks, state

    def test_stride_schedule(self):
        """Records appear at step 0, every stride, and at the end; snapshots likewise."""
        report, sinks, _ = self._small_run(t_end=0.1, diag_stride=3, snapshot_stride=5)
        assert report.steps == 10
        times = [rec.time for rec in sinks.records]
        assert times == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.10])
        assert [s.time for s in sinks.snapshots] == pytest.approx([0.0, 0.05, 0.10])

    def test_snapshots_disabled_by_default(self):
        """Stride zero emits no snapshots at all."""
        _, sinks, _ = self._small_run(t_end=0.05)
        assert sinks.snapshots == []
        assert len(sinks.records) == 6

    def test_zero_length_run(self):
        """t_end at the initial time emits one record and takes no steps."""
        report, sinks, state = self._small_run(t_end=0.0)
        assert report.steps == 0
        assert report.final_state is state
        assert len(sinks.records) == 1

    def test_partial_final_step(self):
        """A non-multiple horizon ends with a shorter step exactly on target."""
        report, sinks, _ = self._small_run(t_end=0.073)
        assert report.steps == 8
        assert report.final_state.time == 0.073
        assert sinks.records[-1].time == 0.073

    def test_runs_are_deterministic(self):
        """Two identical runs agree bit for bit in states and records."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        bath = BathymetryState.flat(grid)

        def once():
            state = pulse_state(grid, amplitude=0.4, width=0.6)
            sinks = CollectingSinks()
            icfg = IntegrationConfig(dt=0.02, t_end=0.4, diag_stride=5, snapshot_stride=10)
            report = run(state, params, bath, icfg, sinks=sinks, diag_order=2)
            return report, sinks

        first, sinks_a = once()
        second, sinks_b = once()
        assert np.array_equal(first.final_state.zeta.data, second.final_state.zeta.data)
        assert np.array_equal(first.final_state.vel.data, second.final_state.vel.data)
        assert sinks_a.records == sinks_b.records
        assert all(
            np.array_equal(a.zeta.data, b.zeta.data)
            for a, b in zip(sinks_a.snapshots, sinks_b.snapshots)
        )

    @pytest.mark.parametrize("stride", [1, 3])
    def test_record_depends_on_its_state_alone(self, stride):
        """A run's last record is the record of its final state taken on its
        own, whatever the records before it."""
        grid = PeriodicGrid((64,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        bath = BathymetryState.flat(grid)
        sinks = CollectingSinks()
        icfg = IntegrationConfig(dt=0.02, t_end=0.3, diag_stride=stride)
        report = run(pulse_state(grid, 0.3, 0.5), params, bath, icfg, sinks=sinks, diag_order=2)
        assert sinks.records[-1] == collect_record(report.final_state, params, bath, 2)
        assert report.record_iterations == sum(rec.cg_iterations for rec in sinks.records)


class TestFailureModes:
    def test_depth_floor_aborts_run(self):
        """The floor is the initial state's minimum depth: a stage whose depth
        falls to half of it stops the run, with the last accepted state."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=1.0, beta=0.0, mu=0.5)
        v0 = 10.0 * np.sin(grid.coords[0])[None]
        state = FluidState(
            ScalarField.zeros(grid), VectorField(grid, v0), VariableKind.V_VARIABLE
        )
        icfg = IntegrationConfig(dt=0.15, t_end=0.15)
        message = "stage depth 0.357143 at t = 0.075 fell to half the floor 1$"
        with pytest.warns(UserWarning, match="advisory"):
            with pytest.raises(CoercivityViolationError, match=message) as excinfo:
                run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        report = excinfo.value.report
        assert isinstance(report, RunReport)
        assert report.termination == "coercivity_violation"
        assert report.steps == 0
        assert report.failure_time == 0.0

    def test_blow_up_detection(self):
        """Field magnitudes beyond the hard limit raise with a report attached."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=1e-12, beta=0.0, mu=0.5)
        z0 = 2e8 * np.cos(grid.coords[0])
        state = FluidState(
            ScalarField(grid, z0), VectorField.zeros(grid), VariableKind.V_VARIABLE
        )
        icfg = IntegrationConfig(dt=0.01, t_end=0.1)
        with pytest.raises(BlowUpError, match="exceeds") as excinfo:
            run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        assert excinfo.value.report.termination == "blow_up"
        assert excinfo.value.report.failure_time == 0.0

    def test_nan_velocity_is_a_blow_up(self, monkeypatch):
        """One NaN in the velocity ends the run as a blow-up, although the
        surface stays finite, at the first stage that takes it as input."""
        from gnwave import timeloop

        plain = timeloop.rhs_gn_v_mollified

        def poisoned(*args):
            k = plain(*args)
            k[1, 3] = np.nan  # the velocity's first component
            return k

        monkeypatch.setattr(timeloop, "rhs_gn_v_mollified", poisoned)
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5)
        icfg = IntegrationConfig(dt=0.01, t_end=0.1)
        with pytest.raises(BlowUpError, match="nan") as excinfo:
            run(pulse_state(grid), params, BathymetryState.flat(grid), icfg, diag_order=0)
        report = excinfo.value.report
        assert report.termination == "blow_up"
        assert report.steps == 0
        assert report.failure_time == 0.005

    def test_kind_checked(self):
        """run refuses a state of the other variable kind, both ways;
        an unknown kind or formulation is refused, naming the accepted ones."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        bath = BathymetryState.flat(grid)
        icfg = IntegrationConfig(dt=0.01, t_end=0.02)
        for formulation, kind in (
            (Formulation.GN_V, VariableKind.U_VARIABLE),
            (Formulation.GN_U, VariableKind.V_VARIABLE),
        ):
            params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5, formulation=formulation)
            state = FluidState(pulse_state(grid).zeta, VectorField.zeros(grid), kind)
            names = f"{params.expected_kind.value}-variable.*{kind.value}-variable"
            with pytest.raises(ValidationError, match=names):
                run(state, params, bath, icfg, diag_order=0)
        with pytest.raises(ValidationError, match="'u', 'v'"):
            FluidState(pulse_state(grid).zeta, VectorField.zeros(grid), "w")
        with pytest.raises(ValidationError, match="'gn_u', 'gn_v', 'bp', 'sv'"):
            ModelParams(formulation="bogus")

    def test_smoothing_requires_conjugate_formulation(self):
        """Spectral smoothing with the velocity formulation is rejected."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5, formulation=Formulation.GN_U)
        state = FluidState.rest(grid, VariableKind.U_VARIABLE)
        icfg = IntegrationConfig(dt=0.01, t_end=0.1, mollifier=MollifierSpec(iota=0.3))
        with pytest.raises(ValidationError, match="conjugate-variable"):
            run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)


class TestFieldWrappers:
    def test_wrappers_do_not_grow_with_steps(self, monkeypatch):
        """Stages and steps pass arrays, so a run builds as many field
        wrappers over 8 steps as over 4 when no strided record falls between."""
        from gnwave import grid as grid_module

        calls = []
        wrap = grid_module._as_readonly

        def counted(*args):
            calls.append(None)
            return wrap(*args)

        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        bath = BathymetryState.flat(grid)
        state = pulse_state(grid, amplitude=0.3)
        monkeypatch.setattr(grid_module, "_as_readonly", counted)

        def wrappers(steps):
            calls.clear()
            icfg = IntegrationConfig(dt=0.02, t_end=steps * 0.02, diag_stride=10**6)
            report = run(state, params, bath, icfg, sinks=CollectingSinks(), diag_order=1)
            assert report.steps == steps
            return len(calls)

        assert wrappers(4) == wrappers(8)


class TestMollifiedRun:
    def test_smoothed_run_completes(self):
        """A smoothed conjugate-variable run integrates and keeps mass."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        state = pulse_state(grid, amplitude=0.4, width=0.4)
        sinks = CollectingSinks()
        icfg = IntegrationConfig(
            dt=0.02, t_end=0.2, mollifier=MollifierSpec(iota=0.3), diag_stride=5
        )
        report = run(state, params, BathymetryState.flat(grid), icfg, sinks=sinks, diag_order=0)
        assert report.termination == "completed"
        masses = [rec.mass for rec in sinks.records]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-13

    def test_symbol_built_once_per_run(self, monkeypatch):
        """φ is one multiplier for a run: its 40 stages reuse one table."""
        built = []
        multiplier = MollifierSpec.multiplier

        def counted(spec, grid):
            built.append(grid)
            return multiplier(spec, grid)

        monkeypatch.setattr(MollifierSpec, "multiplier", counted)
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        icfg = IntegrationConfig(dt=0.02, t_end=0.2, mollifier=MollifierSpec(iota=0.3))
        report = run(pulse_state(grid), params, BathymetryState.flat(grid), icfg, diag_order=0)
        assert report.steps == 10
        assert built == [grid]


class TestReport:
    def test_report_fields(self):
        """Completed runs report steps, solver effort and wall time."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        state = pulse_state(grid, amplitude=0.3)
        icfg = IntegrationConfig(dt=0.02, t_end=0.1)
        report = run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        assert report.termination == "completed"
        assert report.steps == 5
        assert report.failure_time is None
        assert report.total_elliptic_iterations > 0
        assert report.wall_time > 0.0


class TestReadmeExample:
    def test_library_example_runs_clean(self):
        """README's library example runs to completion with no warning."""
        import re
        import warnings
        from pathlib import Path

        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        namespace: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block.group(1), str(readme), "exec"), namespace)
        assert namespace["report"].termination == "completed"
