"""Tests for the verification-study module."""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gnwave.diagnostics import hamiltonian_gn
from gnwave.errors import ValidationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import (
    FluidState,
    Formulation,
    ModelParams,
    VariableKind,
    make_depth,
    rhs_gn_u,
    rhs_gn_v,
)
from gnwave.operators import BathymetryState, EllipticSolveConfig
from gnwave import verify
from gnwave.solitary import solitary_wave_profile, solitary_wave_state
from gnwave.timeloop import IntegrationConfig


def flat_bath(grid):
    return BathymetryState(ScalarField(grid, np.zeros(grid.shape)), 0.0)


def random_inputs(grid, beta, seed=0):
    """Band-limited (zeta, u, bath) triple on the given grid."""
    rng = np.random.default_rng(seed)
    zeta = verify.band_limited_scalar(grid, rng, 4, 0.4)
    u = verify.band_limited_vector(grid, rng, 4, 0.7)
    if beta:
        b = verify.band_limited_scalar(grid, rng, 3, 0.5)
        bath = BathymetryState(ScalarField(grid, b), beta)
    else:
        bath = flat_bath(grid)
    return ScalarField(grid, zeta), VectorField(grid, u), bath


class TestResidualReport:
    def test_length_mismatch_rejected(self):
        """Resolutions and residuals must pair up."""
        with pytest.raises(ValidationError, match="resolutions"):
            verify.ResidualReport("x", (32, 64), (1.0,), 0.0, False)

    def test_empty_rejected(self):
        """A report needs at least one rung."""
        with pytest.raises(ValidationError, match="empty"):
            verify.ResidualReport("x", (), (), 0.0, False)

    def test_floor_clause(self):
        """A final residual at the round-off floor passes regardless of shape."""
        rep = verify.ResidualReport.from_residuals("x", (32, 64), (1e-14, 9e-10))
        assert rep.passed

    def test_super_algebraic_pass(self):
        """Accelerating decay with a large total drop passes."""
        rep = verify.ResidualReport.from_residuals("x", (16, 32, 64), (1e-2, 1e-4, 1e-7))
        assert rep.passed and rep.decay_rate > 5.0

    def test_algebraic_decay_fails(self):
        """Fixed-order decay (shrinking factors) is rejected above the floor."""
        rep = verify.ResidualReport.from_residuals(
            "x", (16, 32, 64, 128), (1e-2, 1e-3, 3e-4, 2e-4)
        )
        assert not rep.passed

    def test_growth_fails(self):
        """Residual growth is rejected."""
        rep = verify.ResidualReport.from_residuals("x", (16, 32), (1e-3, 1e-2))
        assert not rep.passed

    def test_ordered_ladder_is_judged_by_its_order(self):
        """A ladder of a given order (a dt study) passes when it falls at
        that order, less half an order, although its factors do not grow;
        too low a rate, a rise or a repeated residual fails it above the
        floor, and the floor passes it."""
        third = (6.0e-6, 7.5e-7, 9.375e-8)  # factors of 8: rate 3
        for order, passed in ((3, True), (4, False)):
            rep = verify.ResidualReport.from_residuals("dt", (10, 20, 40), third, order)
            assert rep.decay_rate == pytest.approx(3.0)
            assert rep.passed is passed
        assert not verify.ResidualReport.from_residuals("x", (10, 20, 40), third).passed
        slow = (6.0e-6, 6.0e-6 / 7.0, 6.0e-6 / 49.0)  # rate 2.81: within the slack
        assert verify.ResidualReport.from_residuals("dt", (10, 20, 40), slow, 3).passed
        for bad in ((1e-6, 1e-7, 2e-7), (1e-6, 1e-6), (1e-5, 1e-6, 1e-6)):
            rep = verify.ResidualReport.from_residuals("dt", (10, 20, 40)[: len(bad)], bad, 3)
            assert not rep.passed
        assert verify.ResidualReport.from_residuals("dt", (10, 20), (1e-8, 1e-9), 4).passed

    def test_text_rendering(self):
        """Text output carries the verdict and one line per rung."""
        rep = verify.ResidualReport.from_residuals("ident", (16, 32), (1e-3, 1e-8))
        text = rep.as_text()
        assert "ident" in text and "PASS" in text and text.count("resolution") == 2

    def test_csv_round_trip(self):
        """CSV rows re-parse to the emitted values."""
        rep = verify.ResidualReport.from_residuals("ident", (16, 32), (1e-3, 1e-8))
        rows = list(csv.DictReader(io.StringIO(verify.reports_as_csv([rep]))))
        assert len(rows) == 2
        assert float(rows[1]["residual"]) == rep.residuals[1]
        assert rows[0]["name"] == "ident"

    @given(tail=st.floats(min_value=1e-16, max_value=1e-9))
    def test_floor_clause_property(self, tail):
        """Any ladder ending at or below the absolute floor passes."""
        rep = verify.ResidualReport.from_residuals("x", (16, 32, 64), (1.0, 2.0, tail))
        assert rep.passed


class TestBandLimitedFields:
    def test_band_limit_respected(self):
        """No energy beyond the requested mode band."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        f = verify.band_limited_scalar(g, np.random.default_rng(0), 4, 1.0)
        spec = np.fft.rfft(f) / 64
        assert np.max(np.abs(spec[5:])) < 1e-14

    def test_amplitude_bound(self):
        """Peak magnitude never exceeds the requested amplitude."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        f = verify.band_limited_scalar(g, np.random.default_rng(1), 3, 0.25)
        assert 0.01 < np.max(np.abs(f)) <= 0.25

    def test_zero_mean(self):
        """The constant mode is never drawn."""
        g = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
        f = verify.band_limited_scalar(g, np.random.default_rng(2), 3, 1.0)
        assert abs(f.mean()) < 1e-14

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_resolution_independence(self, seed):
        """The same seed gives the same continuum field at every resolution."""
        fine = PeriodicGrid((128,), (2 * np.pi,))
        coarse = PeriodicGrid((32,), (2 * np.pi,))
        f_fine = verify.band_limited_scalar(fine, np.random.default_rng(seed), 4, 1.0)
        f_coarse = verify.band_limited_scalar(coarse, np.random.default_rng(seed), 4, 1.0)
        restricted = verify.restrict_to_grid(f_fine, fine, coarse)
        assert np.max(np.abs(restricted - f_coarse)) < 1e-12


class TestTrigBasis:
    def test_non_square_basis_is_orthogonal_with_stated_norms(self):
        """On a (24, 18) box the basis has (2b₀+1)(2b₁+1) functions for the
        band (b₀, b₁) = (8, 6), and its Gram matrix is the diagonal of the
        squared norms it states."""
        g = PeriodicGrid((24, 18), (3.0, 5.0))
        fields, norms = zip(*verify._trig_basis(g))
        b0, b1 = g.band
        assert (b0, b1) == (8, 6)
        assert len(fields) == (2 * b0 + 1) * (2 * b1 + 1)
        gram = np.array([[g.inner(e, f) for f in fields] for e in fields])
        assert np.max(np.abs(gram - np.diag(norms))) < 1e-12 * g.volume


class TestRestriction:
    def test_vector_stack(self):
        """Stacked components restrict independently."""
        fine = PeriodicGrid((64, 64), (2 * np.pi, 2 * np.pi))
        coarse = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
        u = verify.band_limited_vector(fine, np.random.default_rng(3), 3, 1.0)
        r = verify.restrict_to_grid(u, fine, coarse)
        assert r.shape == (2, 32, 32)
        r0 = verify.restrict_to_grid(u[0], fine, coarse)
        assert np.array_equal(r[0], r0)

    def test_mean_preserved(self):
        """The constant mode survives restriction exactly."""
        fine = PeriodicGrid((64,), (2 * np.pi,))
        coarse = PeriodicGrid((16,), (2 * np.pi,))
        f = 0.7 + verify.band_limited_scalar(fine, np.random.default_rng(4), 2, 1.0)
        r = verify.restrict_to_grid(f, fine, coarse)
        assert r.mean() == pytest.approx(0.7, abs=1e-13)

    def test_length_mismatch_rejected(self):
        """Restriction requires one physical box."""
        fine = PeriodicGrid((64,), (2 * np.pi,))
        coarse = PeriodicGrid((32,), (1.0,))
        with pytest.raises(ValidationError, match="box lengths"):
            verify.restrict_to_grid(np.zeros(64), fine, coarse)

    def test_finer_target_rejected(self):
        """A target finer than the source on any axis is refused, naming both
        shapes; the default ladder of the identity checks reaches it for any
        input under 128 points."""
        fine = PeriodicGrid((32, 64), (2 * np.pi, 2 * np.pi))
        coarse = PeriodicGrid((64, 32), (2 * np.pi, 2 * np.pi))
        with pytest.raises(ValidationError, match=r"\(32, 64\).*\(64, 32\)"):
            verify.restrict_to_grid(np.zeros(fine.shape), fine, coarse)
        g = PeriodicGrid((64,), (2 * np.pi,))
        zeta, u, bath = random_inputs(g, beta=0.3)
        params = ModelParams(epsilon=0.3, mu=1.0, beta=0.3)
        with pytest.raises(ValidationError, match=r"\(64,\) to the finer grid \(128,\)"):
            verify.check_equivalence_identity(zeta, u, params, bath)


class TestEquivalenceIdentity:
    def test_flat_bottom_round_off(self):
        """Without topography the identity closes at round-off once resolved."""
        g = PeriodicGrid((96,), (2 * np.pi,))
        zeta, u, bath = random_inputs(g, beta=0.0)
        rep = verify.check_equivalence_identity(
            zeta, u, ModelParams(epsilon=0.3, mu=1.0, beta=0.0), bath, grids=(96,)
        )
        assert rep.residuals[0] < 1e-11 and rep.passed

    def test_zero_velocity(self):
        """Both sides vanish identically at rest."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        zeta, _, bath = random_inputs(g, beta=0.4)
        rep = verify.check_equivalence_identity(
            zeta,
            VectorField.zeros(g),
            ModelParams(epsilon=0.3, mu=1.0, beta=0.4),
            bath,
            grids=(32, 64),
        )
        assert rep.residuals == (0.0, 0.0)

    def test_refinement_decay(self):
        """With topography the residual is pure truncation and decays fast."""
        g = PeriodicGrid((128, 128), (2 * np.pi, 2 * np.pi))
        zeta, u, bath = random_inputs(g, beta=0.4)
        rep = verify.check_equivalence_identity(
            zeta, u, ModelParams(epsilon=0.3, mu=1.0, beta=0.4), bath
        )
        assert rep.passed
        assert rep.residuals[0] / max(rep.residuals[-1], 1e-300) > 100.0
        assert rep.residuals[-1] <= 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_passes_on_every_seed(self, seed):
        """The identity check passes for arbitrary seeded inputs."""
        g = PeriodicGrid((96,), (2 * np.pi,))
        zeta, u, bath = random_inputs(g, beta=0.3, seed=seed)
        rep = verify.check_equivalence_identity(
            zeta, u, ModelParams(epsilon=0.25, mu=0.8, beta=0.3), bath, grids=(24, 48, 96)
        )
        assert rep.passed

    @pytest.mark.parametrize(
        "check",
        [
            verify.check_equivalence_identity,
            verify.check_rhs_equivalence,
            verify.check_variational_structure,
        ],
    )
    def test_unequal_axes_refused(self, check):
        """Ladders run square grids: on (64, 32) the rungs 8, 16, 32 would leave
        the x-modes 16 to 21 of the grid's band unchecked, so the state is refused."""
        g = PeriodicGrid((64, 32), (2 * np.pi, 2 * np.pi))
        zeta, u, bath = random_inputs(g, beta=0.0)
        params = ModelParams(epsilon=0.3, mu=0.8)
        with pytest.raises(ValidationError, match="the state's shape = 64 32 has unequal axes"):
            check(zeta, u, params, bath, grids=(8, 16, 32))


class TestRhsEquivalence:
    def test_rest_state(self):
        """Both tendency routes vanish at rest over a flat bottom."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        rep = verify.check_rhs_equivalence(
            ScalarField.zeros(g),
            VectorField.zeros(g),
            ModelParams(epsilon=0.3, mu=1.0),
            flat_bath(g),
            grids=(32, 64),
        )
        assert max(rep.residuals) < 1e-13

    def test_mu_zero_round_off(self):
        """Without dispersion the two formulations coincide identically."""
        g = PeriodicGrid((96,), (2 * np.pi,))
        zeta, u, bath = random_inputs(g, beta=0.4)
        rep = verify.check_rhs_equivalence(
            zeta, u, ModelParams(epsilon=0.3, mu=0.0, beta=0.4), bath, grids=(48, 96)
        )
        assert max(rep.residuals) < 1e-12

    def test_refinement_decay(self):
        """The mapped-tendency gap decays spectrally for dispersive runs."""
        g = PeriodicGrid((128,), (2 * np.pi,))
        zeta, u, bath = random_inputs(g, beta=0.4)
        rep = verify.check_rhs_equivalence(
            zeta, u, ModelParams(epsilon=0.3, mu=0.8, beta=0.4), bath
        )
        assert rep.passed and rep.residuals[-1] <= 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=3, deadline=None)
    def test_passes_on_every_seed(self, seed):
        """The tendency-equivalence check passes for arbitrary seeded inputs."""
        g = PeriodicGrid((96,), (2 * np.pi,))
        zeta, u, bath = random_inputs(g, beta=0.3, seed=seed)
        rep = verify.check_rhs_equivalence(
            zeta, u, ModelParams(epsilon=0.25, mu=0.9, beta=0.3), bath, grids=(24, 48, 96)
        )
        assert rep.passed


class TestVariationalStructure:
    def test_rest_gradients_vanish(self):
        """At rest the assembled tendency is identically zero."""
        g = PeriodicGrid((32,), (2 * np.pi,))
        state = FluidState(ScalarField.zeros(g), VectorField.zeros(g), VariableKind.V_VARIABLE)
        dz, dv = verify.skew_assembled_rhs(state, ModelParams(epsilon=0.3, mu=1.0), flat_bath(g))
        assert np.max(np.abs(dz)) < 1e-14 and np.max(np.abs(dv)) < 1e-14

    def test_requires_conjugate_state(self):
        """The skew assembly is defined on the conjugate variable."""
        g = PeriodicGrid((32,), (2 * np.pi,))
        state = FluidState(ScalarField.zeros(g), VectorField.zeros(g), VariableKind.U_VARIABLE)
        with pytest.raises(ValidationError, match="v-variable"):
            verify.skew_assembled_rhs(state, ModelParams(), flat_bath(g))

    def test_energy_scales_quadratically(self):
        """Near rest the energy is a quadratic form: H(s·) ≈ s²H."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        zeta, v, bath = random_inputs(g, beta=0.0, seed=5)
        params = ModelParams(epsilon=1.0, mu=1.0)
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)

        def ham(s):
            z = s * zeta.data
            return hamiltonian_gn(z, s * v.data, params, make_depth(params, z, bath), cfg)

        assert abs(ham(2e-3) / ham(1e-3) - 4.0) < 1e-3

    def test_fd_mismatch_quarters(self):
        """Halving the finite-difference step quarters the pairing mismatch."""
        g = PeriodicGrid((48,), (2 * np.pi,))
        zeta, v, bath = random_inputs(g, beta=0.4, seed=3)
        params = ModelParams(epsilon=0.3, mu=0.8, beta=0.4)
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)
        m_big, _ = verify.fd_pairing_mismatch(
            zeta, v, params, bath, cfg, np.random.default_rng(7), delta=2e-3
        )
        m_small, _ = verify.fd_pairing_mismatch(
            zeta, v, params, bath, cfg, np.random.default_rng(7), delta=1e-3
        )
        assert m_big / m_small == pytest.approx(4.0, abs=0.5)

    def test_report_passes(self):
        """Gradient pairing and skew assembly agree under refinement."""
        g = PeriodicGrid((128,), (2 * np.pi,))
        zeta, v, bath = random_inputs(g, beta=0.4, seed=1)
        rep = verify.check_variational_structure(
            zeta, v, ModelParams(epsilon=0.3, mu=0.8, beta=0.4), bath
        )
        assert rep.passed and rep.residuals[-1] <= 1e-9

    def test_report_passes_2d(self):
        """The planar rotation term is exercised and still matches."""
        g = PeriodicGrid((24, 24), (2 * np.pi, 2 * np.pi))
        rng = np.random.default_rng(9)
        zeta = ScalarField(g, verify.band_limited_scalar(g, rng, 2, 0.3))
        v = VectorField(g, verify.band_limited_vector(g, rng, 2, 0.5))
        rep = verify.check_variational_structure(
            zeta, v, ModelParams(epsilon=0.25, mu=0.7), flat_bath(g), grids=(12, 24)
        )
        assert rep.passed

    def test_fd_assembly_reproduces_tendency(self):
        """FD-only variational derivatives rebuild the tendency on a resolved grid."""
        g = PeriodicGrid((48,), (2 * np.pi,))
        rng = np.random.default_rng(11)
        state = FluidState(
            ScalarField(g, verify.band_limited_scalar(g, rng, 2, 0.3)),
            VectorField(g, verify.band_limited_vector(g, rng, 2, 0.5)),
            VariableKind.V_VARIABLE,
        )
        bath = BathymetryState(
            ScalarField(g, verify.band_limited_scalar(g, rng, 1, 0.4)), 0.4
        )
        gap, tol = verify.fd_skew_reproduction_gap(
            state, ModelParams(epsilon=0.3, mu=0.8, beta=0.4), bath
        )
        assert gap <= tol and tol == 1e-7


class TestDispersion:
    def test_non_dispersive_limit(self):
        """μ = 0 waves travel at unit phase speed."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        rows = verify.dispersion_study(ModelParams(epsilon=1.0, mu=0.0), g, [2, 5])
        for r in rows:
            assert r.fit_ok and r.relative_error < 1e-3
            assert r.predicted_omega == pytest.approx(r.wavenumber)

    def test_dispersive_mode_accuracy(self):
        """μ = 1, k = 2 matches the analytic frequency within 0.1%."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        rows = verify.dispersion_study(ModelParams(epsilon=1.0, mu=1.0), g, [2])
        assert rows[0].fit_ok
        assert rows[0].relative_error < 1e-3
        assert rows[0].predicted_omega == pytest.approx(2.0 / math.sqrt(1 + 4 / 3))

    def test_phase_speed_monotone(self):
        """Measured phase speed decreases with wavenumber when dispersive."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        rows = verify.dispersion_study(ModelParams(epsilon=1.0, mu=1.0), g, [1, 2, 4, 8])
        speeds = [r.measured_omega / r.wavenumber for r in rows]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_nonlinear_amplitude_flagged(self):
        """A visibly nonlinear amplitude fails the linear-fit gate."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        rows = verify.dispersion_study(
            ModelParams(epsilon=1.0, mu=1.0), g, [2], amplitude=0.3
        )
        assert not rows[0].fit_ok

    def test_bathymetry_rejected(self):
        """The study is defined over a flat bottom only."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        with pytest.raises(ValidationError, match="flat bottom"):
            verify.dispersion_study(ModelParams(beta=0.1), g, [1])

    def test_bad_mode_rejected(self):
        """Modes outside 1 … band, a zero amplitude and a span of periods that
        is not positive are refused before any run."""
        g = PeriodicGrid((64,), (2 * np.pi,))
        for modes in ([0], [-1], [1, 22], [40]):
            with pytest.raises(ValidationError, match="modes must lie in 1 … 21"):
                verify.dispersion_study(ModelParams(), g, modes)
        for amplitude, periods in ((0.0, 3.0), (1e-6, 0.0), (1e-6, -1.0), (np.nan, 3.0)):
            with pytest.raises(ValidationError, match="nonzero amplitude and periods > 0"):
                verify.dispersion_study(ModelParams(), g, [1], amplitude, periods)

    def test_csv_round_trip(self):
        """Dispersion CSV rows re-parse to the emitted values."""
        row = verify.DispersionRow(2, 2.0, 1.3093, 1.30931, True)
        parsed = list(csv.DictReader(io.StringIO(verify.dispersion_as_csv([row]))))
        assert float(parsed[0]["measured_omega"]) == row.measured_omega
        assert parsed[0]["fit_ok"] == "1"


def gaussian_problem(eps=0.3, mu=0.7, width=3.0, n=64, t_end=2.0, dt=0.01):
    def initial_state(grid):
        x = grid.coords[0]
        z = 0.5 * np.exp(-width * (x - np.pi) ** 2)
        z = z - z.mean()
        return FluidState(ScalarField(grid, z), VectorField.zeros(grid), VariableKind.V_VARIABLE)

    return verify.ConvergenceProblem(
        params=ModelParams(epsilon=eps, mu=mu, formulation=Formulation.GN_V),
        grid=PeriodicGrid((n,), (2 * np.pi,)),
        integration=IntegrationConfig(dt=dt, t_end=t_end),
        initial_state=initial_state,
    )


class TestConvergence:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_fourth_order_in_dt(self):
        """Halving dt cuts the self-convergence error about sixteenfold."""
        rep = verify.dt_convergence(gaussian_problem(width=8.0), [0.08, 0.04, 0.02])
        assert rep.passed
        ratios = [rep.residuals[i] / rep.residuals[i + 1] for i in range(2)]
        assert all(11.2 <= r <= 20.8 for r in ratios)
        assert rep.decay_rate == pytest.approx(4.0, abs=1.0)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_third_order_in_dt_for_ssp_rk3(self):
        """SSP-RK3 passes the dt study at its own order: its factors near 8
        do not make the super-algebraic decay of a spectral ladder."""
        problem = gaussian_problem(width=8.0)
        problem = dataclasses.replace(
            problem, integration=dataclasses.replace(problem.integration, scheme="rk3_ssp")
        )
        rep = verify.dt_convergence(problem, [0.08, 0.04, 0.02])
        assert rep.passed
        assert rep.decay_rate == pytest.approx(3.0, abs=0.5)

    def test_repeated_rungs_refused_before_any_run(self, monkeypatch):
        """A study that repeats a dt or a resolution is refused before it
        runs anything: the repeated rung would run twice."""
        monkeypatch.setattr(verify, "run", None)  # nothing may run
        problem = gaussian_problem()
        with pytest.raises(ValidationError, match="dt values must be distinct, got 0.1 0.1"):
            verify.dt_convergence(problem, [0.1, 0.1])
        with pytest.raises(ValidationError, match="resolutions must be distinct, got 16 16 32"):
            verify.resolution_convergence(problem, [16, 16, 32])

    def test_spectral_in_resolution(self):
        """Doubling the resolution cuts the error by far more than 100×."""
        rep = verify.resolution_convergence(
            gaussian_problem(eps=0.1, width=2.0, t_end=1.0), [16, 32, 64]
        )
        assert rep.passed
        assert rep.residuals[0] / rep.residuals[1] > 100.0


class TestTravelingWaveOracle:
    def test_profile_ode_consistency(self):
        """The integrated profile equation differentiates to the stepped ODE."""
        h, c, mu = sympy.symbols("h c mu", positive=True)
        first_integral = 3 / (mu * c**2) * (h - 1) ** 2 * (c**2 - h)
        second_order = sympy.Rational(3, 2) / (mu * c**2) * (h - 1) * (2 * c**2 - 3 * h + 1)
        assert sympy.simplify(sympy.diff(first_integral, h) / 2 - second_order) == 0

    def test_crest_is_turning_point(self):
        """The squared-slope polynomial vanishes at the crest depth h = c²."""
        h, c, mu = sympy.symbols("h c mu", positive=True)
        first_integral = 3 / (mu * c**2) * (h - 1) ** 2 * (c**2 - h)
        assert sympy.simplify(first_integral.subs(h, c**2)) == 0

    def test_sech_squared_solves_profile_equation(self):
        """The closed-form hump satisfies the squared-slope relation exactly."""
        x, eps, a, mu = sympy.symbols("x epsilon a mu", positive=True)
        c2 = 1 + eps * a
        kappa = sympy.sqrt(3 * eps * a / (4 * mu * c2))
        h = 1 + eps * a / sympy.cosh(kappa * x) ** 2
        residual = sympy.diff(h, x) ** 2 - 3 / (mu * c2) * (h - 1) ** 2 * (c2 - h)
        assert sympy.simplify(residual) == 0

    def test_profile_matches_closed_form(self):
        """The profile agrees with the sech² hump."""
        g = PeriodicGrid((256,), (50.0,))
        params = ModelParams(epsilon=1.0, mu=1.0)
        state = solitary_wave_state(g, 0.2, params, kind=VariableKind.U_VARIABLE)
        x = g.coords[0]
        off = (x - 25.0 + 25.0) % 50.0 - 25.0
        kappa = math.sqrt(3 * 0.2 / (4 * 1.2))
        exact = 0.2 / np.cosh(kappa * off) ** 2
        assert np.max(np.abs(state.zeta.data - exact)) < 1e-9

    @pytest.mark.parametrize("amplitude, epsilon, mu", [(0.2, 1.0, 1.0), (0.4, 0.5, 0.7)])
    def test_profile_solves_the_ode(self, amplitude, epsilon, mu):
        """The profile's depth satisfies h'' = (3/(2μc²))(h − 1)(2c² − 3h + 1),
        with h'' the grid's spectral second derivative."""
        g = PeriodicGrid((512,), (80.0,))
        params = ModelParams(epsilon=epsilon, mu=mu)
        zeta, _, c = solitary_wave_profile(g.coords[0] - 40.0, amplitude, params)
        h = 1.0 + epsilon * zeta
        h_xx = g.irfft(g.laplacian_multiplier * g.rfft(h))
        rhs = 1.5 / (mu * c**2) * (h - 1.0) * (2.0 * c**2 - 3.0 * h + 1.0)
        assert np.max(np.abs(h_xx - rhs)) < 1e-10

    def test_far_offsets_stay_finite(self):
        """Offsets far beyond the wave's width give finite values and no
        floating-point warning."""
        x = np.array([-1e4, -5000.0, -710.0, 0.0, 710.0, 5000.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeta, u, _ = solitary_wave_profile(x, 0.2, ModelParams(epsilon=1.0, mu=1.0))
        assert np.all(np.isfinite(zeta)) and np.all(np.isfinite(u))
        assert zeta[0] == zeta[-1] == 0.0 and zeta[3] == pytest.approx(0.2, rel=1e-15)

    def test_profile_is_steady_in_u_form(self):
        """Classical tendencies reduce to advection at the wave speed."""
        g = PeriodicGrid((512,), (50.0,))
        params = ModelParams(epsilon=1.0, mu=1.0)
        state = solitary_wave_state(g, 0.2, params, kind=VariableKind.U_VARIABLE)
        _, _, c = solitary_wave_profile(np.zeros(1), 0.2, params)
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)
        depth = make_depth(params, state.zeta.data, flat_bath(g))
        k = rhs_gn_u(state.zeta.data, state.vel.data, params, depth, cfg)
        dz, du = k[0], k[1:]
        adv_z = -c * g.gradient(state.zeta.data)[0]
        adv_u = -c * g.gradient(state.vel.data[0])
        assert g.norm_l2(dz - adv_z) / g.norm_l2(adv_z) < 1e-6
        assert g.norm_l2(du[0] - adv_u) / g.norm_l2(adv_u) < 1e-6

    def test_profile_is_steady_in_v_form(self):
        """Conjugate tendencies reduce to advection at the wave speed."""
        g = PeriodicGrid((512,), (50.0,))
        params = ModelParams(epsilon=1.0, mu=1.0)
        state = solitary_wave_state(g, 0.2, params)
        _, _, c = solitary_wave_profile(np.zeros(1), 0.2, params)
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)
        depth = make_depth(params, state.zeta.data, flat_bath(g))
        k = rhs_gn_v(state.zeta.data, state.vel.data, params, depth, cfg)
        dz, dv = k[0], k[1:]
        adv_z = -c * g.gradient(state.zeta.data)[0]
        adv_v = -c * g.gradient(state.vel.data[0])
        assert g.norm_l2(dz - adv_z) / g.norm_l2(adv_z) < 1e-6
        assert g.norm_l2(dv[0] - adv_v) / g.norm_l2(adv_v) < 5e-5

    def test_validation(self):
        """Degenerate parameters are rejected with clear messages."""
        g = PeriodicGrid((64,), (50.0,))
        with pytest.raises(ValidationError, match="amplitude"):
            solitary_wave_state(g, -0.1, ModelParams(epsilon=1.0, mu=1.0))
        with pytest.raises(ValidationError, match="mu > 0"):
            solitary_wave_state(g, 0.2, ModelParams(epsilon=1.0, mu=0.0))
        with pytest.raises(ValidationError, match="epsilon > 0"):
            solitary_wave_profile(np.zeros(3), 0.2, ModelParams(epsilon=0.0, mu=1.0))
        g2 = PeriodicGrid((16, 16), (50.0, 50.0))
        with pytest.raises(ValidationError, match="one-dimensional"):
            solitary_wave_state(g2, 0.2, ModelParams(epsilon=1.0, mu=1.0))


class TestAlignedGap:
    def test_integer_shift_recovered(self):
        """A rolled copy aligns back to round-off."""
        g = PeriodicGrid((256,), (50.0,))
        state = solitary_wave_state(g, 0.2, ModelParams(epsilon=1.0, mu=1.0))
        rolled = np.roll(state.zeta.data, 91)
        assert verify.aligned_profile_gap(g, rolled, state.zeta.data) < 1e-12

    def test_fractional_shift_recovered(self):
        """A spectrally shifted copy aligns back to near round-off."""
        g = PeriodicGrid((256,), (50.0,))
        state = solitary_wave_state(g, 0.2, ModelParams(epsilon=1.0, mu=1.0))
        k = 2 * np.pi * np.fft.rfftfreq(256, d=50.0 / 256)
        frac = np.fft.irfft(np.fft.rfft(state.zeta.data) * np.exp(1j * k * 0.37), n=256)
        assert verify.aligned_profile_gap(g, frac, state.zeta.data) < 1e-9

    def test_distortion_detected(self):
        """Shape change beyond a pure shift is reported, not hidden."""
        g = PeriodicGrid((256,), (50.0,))
        state = solitary_wave_state(g, 0.2, ModelParams(epsilon=1.0, mu=1.0))
        x = g.coords[0]
        perturbed = np.roll(state.zeta.data, 11) + 3e-5 * np.sin(2 * np.pi * x / 50.0)
        gap = verify.aligned_profile_gap(g, perturbed, state.zeta.data)
        assert 1e-5 < gap < 1e-2

    def test_two_dimensional_rejected(self):
        """Alignment is a one-dimensional operation."""
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        with pytest.raises(ValidationError, match="one-dimensional"):
            verify.aligned_profile_gap(g, np.zeros((16, 16)), np.zeros((16, 16)))
