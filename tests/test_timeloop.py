"""Time integration: accuracy orders, invariants, guards, emission policy."""
import numpy as np
import pytest

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
    step,
)

from _helpers import (
    band_limited_scalar,
    band_limited_vector,
    fv_shallow_water,
    smooth_bathymetry,
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
        """Diagnostics stride must be an integer ≥ 1."""
        with pytest.raises(ValidationError, match="diag_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, diag_stride=0)
        with pytest.raises(ValidationError, match="diag_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, diag_stride=1.5)

    def test_snapshot_stride_bounds(self):
        """Snapshot stride must be an integer ≥ 0; zero disables snapshots."""
        with pytest.raises(ValidationError, match="snapshot_stride"):
            IntegrationConfig(dt=0.1, t_end=1.0, snapshot_stride=-1)
        IntegrationConfig(dt=0.1, t_end=1.0, snapshot_stride=0)


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
        dz, dv, _ = rhs_gn_v(*tendency_args(state, params, bath))
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
        dz, du, _ = rhs_gn_u(*tendency_args(state, params, bath))
        assert self._out_of_band(grid, dz) < 1e-14
        assert self._out_of_band(grid, du) > 1e-12


class TestStageSolves:
    def test_warm_started_stage_solves_meet_the_tolerance(self, monkeypatch):
        """Every RK4 stage solve keeps ‖𝔗u − hv‖ ≤ rel_tolerance·‖hv‖, warm start and all."""
        self._check_stage_solves(monkeypatch, "rk4", 4)

    def test_warm_started_rk3_stage_solves_meet_the_tolerance(self, monkeypatch):
        """The same for SSP-RK3, whose session keeps three stage indices."""
        self._check_stage_solves(monkeypatch, "rk3_ssp", 3)

    @staticmethod
    def _check_stage_solves(monkeypatch, scheme, stages):
        """12 full steps and a shorter final one, each stage solve checked.

        The per-stage guess engages from step 5 (step 6 for the first stage,
        whose first solve starts from rest) and stays off for the shorter step.
        """
        from gnwave import models
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
        stage_guess = SolverSession._stage_guess

        def watched(session, shape):
            guess = stage_guess(session, shape)
            engaged[session.stage] = guess is not None
            return guess

        monkeypatch.setattr(models, "invert_frakT", checked)
        monkeypatch.setattr(SolverSession, "_stage_guess", watched)
        zeta = 0.1 * np.exp(-2.0 * sum((c - np.pi) ** 2 for c in grid.coords))
        state = FluidState(ScalarField(grid, zeta), VectorField.zeros(grid), VariableKind.V_VARIABLE)
        params = ModelParams(epsilon=0.1, mu=0.5)
        dt = 0.08
        icfg = IntegrationConfig(dt=dt, t_end=12.5 * dt, scheme=scheme, diag_stride=10**6)
        cfg = EllipticSolveConfig(rel_tolerance=1e-11)
        report = run(state, params, BathymetryState.flat(grid), icfg, cfg, diag_order=0)
        assert report.steps == 13
        assert len(relative) == stages * 13 - 1  # the first stage starts from rest
        assert max(relative) <= 1.001e-11
        for (index, start, step_dt), on in engaged.items():
            n = round(start / dt) + 1
            if step_dt != dt:
                assert n == 13 and not on
            else:
                assert on == (n >= (6 if index == 0 else 5)), (index, n)
        assert len(engaged) == stages * 13 - 2  # the first two solves find no earlier solution

    def test_stage_guess_cuts_soliton_iterations(self, monkeypatch):
        """On the soliton, from step 6 on, the per-stage guess needs at most 60%
        of the CG iterations that the guess over stage times alone needs."""
        from gnwave import models, verify
        from gnwave.operators import EllipticSolveConfig, SolverSession

        grid = PeriodicGrid((256,), (50.0,))
        params = ModelParams(epsilon=1.0, mu=1.0)
        bath = BathymetryState.flat(grid)
        state = verify.solitary_wave_state(grid, 0.2, params)
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
        monkeypatch.setattr(SolverSession, "_stage_guess", lambda session, shape: None)
        in_time = late_mean()
        assert per_stage <= 0.6 * in_time


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


class TestFailureModes:
    def test_depth_floor_aborts_run(self):
        """A configured depth floor above the actual depth stops the first stage."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5, h_star=3.0)
        state = pulse_state(grid, amplitude=0.2)
        icfg = IntegrationConfig(dt=0.01, t_end=0.1)
        with pytest.raises(CoercivityViolationError, match="half the") as excinfo:
            run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        report = excinfo.value.report
        assert isinstance(report, RunReport)
        assert report.termination == "coercivity_violation"
        assert report.steps == 0
        assert report.failure_time == 0.0

    def test_start_below_floor_completes(self):
        """The floor guards stages at half its value; the initial state is not
        held to the floor itself."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5, h_star=0.9)
        state = pulse_state(grid, amplitude=-2.0)
        assert 0.45 < 1.0 + params.epsilon * state.zeta.data.min() < 0.9
        icfg = IntegrationConfig(dt=0.01, t_end=0.1)
        report = run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)
        assert report.termination == "completed"
        assert report.steps == 10

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

    def test_kind_checked(self):
        """run and step refuse a state of the other variable kind, both ways."""
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
            with pytest.raises(ValidationError, match=names):
                step(state, params, bath, icfg)

    def test_smoothing_requires_conjugate_formulation(self):
        """Spectral smoothing with the velocity formulation is rejected."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.1, beta=0.0, mu=0.5, formulation=Formulation.GN_U)
        state = FluidState.rest(grid, VariableKind.U_VARIABLE)
        icfg = IntegrationConfig(dt=0.01, t_end=0.1, mollifier=MollifierSpec(iota=0.3))
        with pytest.raises(ValidationError, match="conjugate-variable"):
            run(state, params, BathymetryState.flat(grid), icfg, diag_order=0)


class TestSingleStep:
    def test_step_matches_one_step_run(self):
        """step() reproduces a one-step run up to elliptic solver tolerance."""
        grid = PeriodicGrid((32,), (2 * np.pi,))
        params = ModelParams(epsilon=0.2, beta=0.0, mu=0.5)
        bath = BathymetryState.flat(grid)
        state = pulse_state(grid, amplitude=0.4)
        icfg = IntegrationConfig(dt=0.02, t_end=0.02)
        via_step = step(state, params, bath, icfg)
        via_run = run(state, params, bath, icfg, diag_order=0).final_state
        assert via_step.time == via_run.time == 0.02
        assert np.allclose(via_step.zeta.data, via_run.zeta.data, rtol=0, atol=1e-10)
        assert np.allclose(via_step.vel.data, via_run.vel.data, rtol=0, atol=1e-10)


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
