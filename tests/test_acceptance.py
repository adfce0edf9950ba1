"""Acceptance gate: one test per shipped guarantee, each at its stated tolerance.

Every test prints a single ``criterion NN <label>: PASS|FAIL (detail)`` line
before asserting, so a verbose run reads as a checklist.  Wall-clock budgets
are part of the guarantees and are asserted alongside the numerics.
"""
from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

from gnwave import verify
from gnwave.diagnostics import energy_E, energy_F, norm_Hn
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import (
    FluidState,
    Formulation,
    ModelParams,
    VariableKind,
    make_depth,
    rhs_bp,
    rhs_gn_u,
)
from gnwave.operators import (
    BathymetryState,
    DepthState,
    EllipticSolveConfig,
    apply_frakT,
    dh_frakT,
    invert_frakT,
)
from gnwave.regularization import MollifierSpec, mollify
from gnwave.solitary import solitary_wave_state
from gnwave.timeloop import CollectingSinks, IntegrationConfig, cfl_time_step, run


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _grid(n: int, dim: int, length: float = 2.0 * np.pi) -> PeriodicGrid:
    return PeriodicGrid((n,) * dim, (length,) * dim)


def _flat(grid: PeriodicGrid) -> BathymetryState:
    return BathymetryState(ScalarField(grid, np.zeros(grid.shape)), 0.0)


def _powerlaw_scalar(grid: PeriodicGrid, rng, decay: float) -> ScalarField:
    """Random field with |f̂(k)| ~ (1+|k|)^(−decay): full spectrum, known tail."""
    k2 = np.zeros(grid.spectral_shape)
    for k in grid.wavenumbers:
        k2 = k2 + k * k
    mag = (1.0 + np.sqrt(k2)) ** (-decay)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=grid.spectral_shape)
    spec = mag * np.exp(1j * phase)
    spec[(0,) * grid.dim] = 0.0
    return ScalarField(grid, grid.ifft(spec))


class TestAcceptance:
    def test_criterion_01_operator_algebra(self):
        """Symmetry, quadratic-form identity, and inversion round trip."""
        t0 = time.perf_counter()
        cfg = EllipticSolveConfig(rel_tolerance=1e-12)
        beta = 0.4
        worst_sym = worst_quad = worst_round = 0.0
        for seed in range(20):
            mu = 0.1 if seed % 2 == 0 else 1.0
            g = _grid(64, 2)
            rng = np.random.default_rng(1000 + seed)
            b = verify.band_limited_scalar(g, rng, 3, 0.12)
            bath = BathymetryState(ScalarField(g, b), beta)
            h = 1.0 + verify.band_limited_scalar(g, rng, 3, 0.12) - beta * b
            depth = DepthState(bath, h)
            u1 = verify.band_limited_vector(g, rng, 4, 0.7)
            u2 = verify.band_limited_vector(g, rng, 4, 0.7)

            t_u1 = apply_frakT(depth, u1, mu)
            a12 = g.inner(t_u1, u2)
            a21 = g.inner(apply_frakT(depth, u2, mu), u1)
            worst_sym = max(
                worst_sym, abs(a12 - a21) / (g.norm_l2(u1) * g.norm_l2(u2))
            )

            d = g.divergence(u1)
            gdot = np.einsum("i...,i...->...", bath.beta_grad_b, u1)
            quad = g.integrate(
                h * np.einsum("i...,i...->...", u1, u1)
                + (mu / 12.0) * h**3 * d**2
                + (mu / 4.0) * h * (h * d - 2.0 * gdot) ** 2
            )
            worst_quad = max(worst_quad, abs(g.inner(t_u1, u1) - quad) / abs(quad))

            v = u2
            sol, _, _ = invert_frakT(depth, v, mu, cfg)
            back = apply_frakT(depth, sol, mu)
            worst_round = max(worst_round, g.norm_l2(back - v) / g.norm_l2(v))
        elapsed = time.perf_counter() - t0
        ok = (
            worst_sym <= 1e-12
            and worst_quad <= 1e-10
            and worst_round <= 10.0 * cfg.rel_tolerance
            and elapsed < 10.0
        )
        _verdict(
            1,
            "operator algebra",
            ok,
            f"symmetry {worst_sym:.2e} <= 1e-12, quadratic form {worst_quad:.2e}"
            f" <= 1e-10, round trip {worst_round:.2e} <= 1e-11, {elapsed:.1f}s",
        )
        assert worst_sym <= 1e-12
        assert worst_quad <= 1e-10
        assert worst_round <= 10.0 * cfg.rel_tolerance
        assert elapsed < 10.0

    def test_criterion_02_shape_derivative(self):
        """Directional depth derivative matches second-order central differences."""
        t0 = time.perf_counter()
        g = _grid(48, 1)
        rng = np.random.default_rng(18)
        mu = 0.9
        beta = 0.3
        b = verify.band_limited_scalar(g, rng, 2, 0.15)
        bath = BathymetryState(ScalarField(g, b), beta)
        depth = DepthState(
            bath, 1.0 + verify.band_limited_scalar(g, rng, 3, 0.15) - beta * b
        )
        f = verify.band_limited_scalar(g, rng, 3, 0.2)
        u = verify.band_limited_vector(g, rng, 3, 0.5)
        exact = dh_frakT(depth, f, u, mu)

        deltas = (1e-3, 5e-4, 2.5e-4)
        errors = []
        for delta in deltas:
            dp = DepthState(bath, depth.h + delta * f)
            dm = DepthState(bath, depth.h - delta * f)
            fd = (apply_frakT(dp, u, mu) - apply_frakT(dm, u, mu)) / (2.0 * delta)
            errors.append(g.norm_l2(fd - exact))
        order = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
        elapsed = time.perf_counter() - t0
        ok = abs(order - 2.0) <= 0.2 and elapsed < 5.0
        _verdict(
            2,
            "shape derivative",
            ok,
            f"fitted order {order:.3f} within 2.0 ± 0.2, {elapsed:.1f}s",
        )
        assert abs(order - 2.0) <= 0.2
        assert elapsed < 5.0

    def test_criterion_03_equivalence_identity(self):
        """Operator-identity residual falls at least 100x from N=32 to N=128."""
        t0 = time.perf_counter()
        g = _grid(128, 2)
        rng = np.random.default_rng(3)
        beta = 0.4
        zeta = ScalarField(g, verify.band_limited_scalar(g, rng, 3, 0.3))
        u = VectorField(g, verify.band_limited_vector(g, rng, 3, 0.4))
        bath = BathymetryState(
            ScalarField(g, verify.band_limited_scalar(g, rng, 2, 0.2)), beta
        )
        params = ModelParams(epsilon=0.3, mu=0.8, beta=beta)
        rep = verify.check_equivalence_identity(
            zeta, u, params, bath, grids=(32, 64, 128)
        )
        decay = rep.residuals[0] / rep.residuals[-1]
        elapsed = time.perf_counter() - t0
        ok = decay >= 100.0 and rep.residuals[-1] <= 1e-9 and rep.passed and elapsed < 30.0
        _verdict(
            3,
            "equivalence identity",
            ok,
            f"decay {decay:.1e}x >= 100x, final residual {rep.residuals[-1]:.1e}"
            f" <= 1e-9, {elapsed:.1f}s",
        )
        assert decay >= 100.0
        assert rep.residuals[-1] <= 1e-9
        assert rep.passed
        assert elapsed < 30.0

    def test_criterion_04_formulation_equivalence(self):
        """Tendency gap between the two formulations decays spectrally."""
        t0 = time.perf_counter()
        g = _grid(128, 2)
        rng = np.random.default_rng(4)
        beta = 0.4
        zeta = ScalarField(g, verify.band_limited_scalar(g, rng, 3, 0.3))
        u = VectorField(g, verify.band_limited_vector(g, rng, 3, 0.4))
        bath = BathymetryState(
            ScalarField(g, verify.band_limited_scalar(g, rng, 2, 0.2)), beta
        )
        params = ModelParams(epsilon=0.3, mu=0.8, beta=beta)
        rep = verify.check_rhs_equivalence(zeta, u, params, bath, grids=(32, 64, 128))
        decay = rep.residuals[0] / rep.residuals[-1]
        elapsed = time.perf_counter() - t0
        ok = decay >= 100.0 and rep.passed and elapsed < 60.0
        _verdict(
            4,
            "formulation equivalence",
            ok,
            f"decay {decay:.1e}x >= 100x, final residual {rep.residuals[-1]:.1e},"
            f" {elapsed:.1f}s",
        )
        assert decay >= 100.0
        assert rep.passed
        assert elapsed < 60.0

    def test_criterion_05_hamiltonian_structure(self):
        """Variational derivatives through the skew pairing rebuild the tendency."""
        t0 = time.perf_counter()
        g = _grid(48, 1)
        rng = np.random.default_rng(11)
        state = FluidState(
            ScalarField(g, verify.band_limited_scalar(g, rng, 2, 0.3)),
            VectorField(g, verify.band_limited_vector(g, rng, 2, 0.5)),
            VariableKind.V_VARIABLE,
        )
        bath = BathymetryState(
            ScalarField(g, verify.band_limited_scalar(g, rng, 1, 0.4)), 0.4
        )
        params = ModelParams(epsilon=0.3, mu=0.8, beta=0.4)
        gap, tol = verify.fd_skew_reproduction_gap(state, params, bath)

        rng2 = np.random.default_rng(3)
        zeta2 = ScalarField(g, verify.band_limited_scalar(g, rng2, 4, 0.4))
        v2 = VectorField(g, verify.band_limited_vector(g, rng2, 4, 0.7))
        bath2 = BathymetryState(
            ScalarField(g, verify.band_limited_scalar(g, rng2, 3, 0.5)), 0.4
        )
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)
        m_big, _ = verify.fd_pairing_mismatch(
            zeta2, v2, params, bath2, cfg, np.random.default_rng(7), delta=2e-3
        )
        m_small, _ = verify.fd_pairing_mismatch(
            zeta2, v2, params, bath2, cfg, np.random.default_rng(7), delta=1e-3
        )
        ratio = m_big / m_small
        elapsed = time.perf_counter() - t0
        ok = gap <= tol and abs(ratio - 4.0) <= 0.5 and elapsed < 60.0
        _verdict(
            5,
            "hamiltonian structure",
            ok,
            f"assembly gap {gap:.2e} <= tol {tol:.1e}, mismatch ratio"
            f" {ratio:.3f} within 4 ± 0.5 under step halving, {elapsed:.1f}s",
        )
        assert gap <= tol
        assert abs(ratio - 4.0) <= 0.5
        assert elapsed < 60.0

    def test_criterion_06_conservation(self):
        """Mass exact, velocity stays curl-free, energy drift scales as dt⁵."""
        t0 = time.perf_counter()
        g = _grid(64, 2)
        x, y = g.coords
        zeta0 = 0.1 * np.exp(-2.0 * ((x - np.pi) ** 2 + (y - np.pi) ** 2))
        params = ModelParams(epsilon=0.1, mu=0.5, formulation=Formulation.GN_V)
        bath = _flat(g)
        cfg = EllipticSolveConfig(rel_tolerance=1e-13)

        worst_mass = 0.0
        worst_curl_excess = 0.0
        drifts = {}
        for dt in (0.2, 0.1):
            state = FluidState(
                ScalarField(g, zeta0.copy()),
                VectorField.zeros(g),
                VariableKind.V_VARIABLE,
            )
            icfg = IntegrationConfig(dt=dt, t_end=5.0, diag_stride=1, snapshot_stride=1)
            sinks = CollectingSinks()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                run(state, params, bath, icfg, cfg, sinks, diag_order=1)
            masses = np.array([r.mass for r in sinks.records])
            hams = np.array([r.hamiltonian for r in sinks.records])
            worst_mass = max(
                worst_mass, float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))
            )
            for snap, rec in zip(sinks.snapshots, sinks.records):
                vnorm = g.norm_l2(snap.vel.data)
                worst_curl_excess = max(
                    worst_curl_excess, rec.vorticity_l2 - 1e-8 * vnorm
                )
            drifts[dt] = float(np.max(np.abs(hams - hams[0])))
        # Classical RK4 has the amplification factor R(z) = 1 + z + z²/2 + z³/6
        # + z⁴/24; on the imaginary axis |R(iθ)|² = 1 − θ⁶/72 + θ⁸/576 with
        # θ = ω·dt.  At ε = 0.1 the problem is nearly linear, so every step
        # removes a fraction θ⁶/72 of each mode's energy, and over the fixed
        # span t_end the drift scales as dt⁵: halving dt divides it by
        # 2⁵ = 32.  The O(dt⁴) part of the error only shifts phase.  An
        # integrator whose energy error is only fourth order (ratio 16) or
        # worse fails the 32 ± 30% band.
        ratio = drifts[0.2] / drifts[0.1]
        elapsed = time.perf_counter() - t0
        ok = (
            worst_mass <= 1e-12
            and worst_curl_excess <= 0.0
            and 22.4 <= ratio <= 41.6
            and elapsed < 120.0
        )
        _verdict(
            6,
            "conservation",
            ok,
            f"mass drift {worst_mass:.1e} <= 1e-12, curl bound satisfied:"
            f" {worst_curl_excess <= 0.0}, Hamiltonian drift ratio {ratio:.1f}"
            f" vs required 32 ± 30%, {elapsed:.0f}s",
        )
        assert worst_mass <= 1e-12
        assert worst_curl_excess <= 0.0
        assert elapsed < 120.0
        assert 22.4 <= ratio <= 41.6, (
            f"Hamiltonian drift ratio {ratio:.2f} between the dt = 0.2 and dt = 0.1"
            " runs falls outside 32 ± 30%: classical RK4 loses a fraction θ⁶/72 of"
            " each mode's energy per step, so halving dt should divide the drift"
            " by 2⁵"
        )

    def test_criterion_07_dispersion(self):
        """Tiny-amplitude waves oscillate at the analytic dispersion frequency."""
        t0 = time.perf_counter()
        g = _grid(64, 1)
        rows = verify.dispersion_study(
            ModelParams(epsilon=1.0, mu=1.0), g, list(range(1, 17)), amplitude=1e-6
        )
        worst = max(r.relative_error for r in rows)
        fits = all(r.fit_ok for r in rows)
        for r in rows:
            k = r.wavenumber
            assert r.predicted_omega == pytest.approx(
                k / math.sqrt(1.0 + k * k / 3.0), rel=1e-12
            )
        rows0 = verify.dispersion_study(
            ModelParams(epsilon=1.0, mu=0.0), g, [1, 2, 4, 8, 16], amplitude=1e-6
        )
        worst0 = max(r.relative_error for r in rows0)
        fits0 = all(r.fit_ok for r in rows0)
        for r in rows0:
            assert r.predicted_omega == pytest.approx(r.wavenumber, rel=1e-12)
        elapsed = time.perf_counter() - t0
        ok = fits and fits0 and worst <= 1e-3 and worst0 <= 1e-3 and elapsed < 60.0
        _verdict(
            7,
            "dispersion",
            ok,
            f"dispersive worst error {worst:.1e} <= 1e-3 over k = 1..16,"
            f" non-dispersive worst {worst0:.1e} <= 1e-3, {elapsed:.0f}s",
        )
        assert fits and fits0
        assert worst <= 1e-3
        assert worst0 <= 1e-3
        assert elapsed < 60.0

    def test_criterion_08_traveling_wave(self):
        """A solitary wave crosses the box ten times and keeps its shape.  The
        stage guesses keep engaging to the end, so the stage solves take at
        most 90 000 CG iterations (88 725 on this case)."""
        t0 = time.perf_counter()
        length = 50.0
        g = PeriodicGrid((256,), (length,))
        amplitude = 0.2
        params = ModelParams(epsilon=1.0, mu=1.0, formulation=Formulation.GN_V)
        bath = _flat(g)
        state0 = solitary_wave_state(g, amplitude, params)
        speed = math.sqrt(1.0 + params.epsilon * amplitude)
        t_end = 10.0 * length / speed
        dt_raw = cfl_time_step(state0, params, bath) / 4.0
        steps = math.ceil(t_end / dt_raw)
        icfg = IntegrationConfig(
            dt=t_end / steps, t_end=t_end, diag_stride=10**9, snapshot_stride=0
        )
        cfg = EllipticSolveConfig(rel_tolerance=1e-8)
        report = run(state0, params, bath, icfg, cfg, CollectingSinks(), diag_order=1)
        gap = verify.aligned_profile_gap(
            g, report.final_state.zeta.data, state0.zeta.data
        )
        elapsed = time.perf_counter() - t0
        cg = report.stage_iterations
        ok = (
            gap <= 1e-4
            and report.termination == "completed"
            and cg <= 90_000
            and elapsed < 120.0
        )
        _verdict(
            8,
            "traveling wave",
            ok,
            f"aligned shape error {gap:.2e} <= 1e-4 after 10 box crossings"
            f" ({report.steps} steps, {cg} stage CG iterations), {elapsed:.0f}s",
        )
        assert report.termination == "completed"
        assert gap <= 1e-4
        assert cg <= 90_000
        assert elapsed < 120.0

    def test_criterion_09_bp_ordering(self):
        """The simplified model sits O(ε) from the full one on fixed data."""
        t0 = time.perf_counter()
        g = _grid(64, 1)
        rng = np.random.default_rng(10)
        beta, mu = 0.3, 0.5
        b = verify.band_limited_scalar(g, rng, 2, 0.15)
        zeta = verify.band_limited_scalar(g, rng, 3, 0.3)
        u = verify.band_limited_vector(g, rng, 3, 0.3)
        bath = BathymetryState(ScalarField(g, b), beta)
        eps_values = (0.2, 0.1, 0.05)
        gaps = []
        for eps in eps_values:
            params = ModelParams(
                epsilon=eps, beta=beta, mu=mu, formulation=Formulation.GN_U
            )
            state = FluidState(
                ScalarField(g, zeta), VectorField(g, u), VariableKind.U_VARIABLE
            )
            depth = make_depth(params, state.zeta.data, bath)
            k_g = rhs_gn_u(state.zeta.data, state.vel.data, params, depth)
            k_b = rhs_bp(state.zeta.data, state.vel.data, params, depth)
            gaps.append(math.hypot(g.norm_l2(k_g[1:] - k_b[1:]), g.norm_l2(k_g[0] - k_b[0])))
        exponent = float(np.polyfit(np.log(eps_values), np.log(gaps), 1)[0])
        elapsed = time.perf_counter() - t0
        ok = abs(exponent - 1.0) <= 0.2 and elapsed < 30.0
        _verdict(
            9,
            "simplified-model ordering",
            ok,
            f"fitted exponent {exponent:.3f} within 1.0 ± 0.2, {elapsed:.1f}s",
        )
        assert abs(exponent - 1.0) <= 0.2
        assert elapsed < 30.0

    def test_criterion_10_energy_comparability(self):
        """The two energy functionals stay uniformly comparable at order 4."""
        t0 = time.perf_counter()
        params = ModelParams(epsilon=0.3, mu=0.7)
        cfg = EllipticSolveConfig(rel_tolerance=1e-10)
        c_at = {}
        for n in (64, 128):
            g = _grid(n, 2)
            bath = _flat(g)
            worst = 1.0
            for seed in range(10):
                rng = np.random.default_rng(500 + seed)
                zeta = verify.band_limited_scalar(g, rng, 3, 0.4)
                v = verify.band_limited_vector(g, rng, 3, 0.5)
                state = FluidState(
                    ScalarField(g, zeta), VectorField(g, v), VariableKind.V_VARIABLE
                )
                depth = make_depth(params, zeta, bath)
                ratio = energy_F(state, params, depth, 4, cfg) / energy_E(
                    state, params, 4
                )
                assert np.isfinite(ratio) and ratio > 0.0
                worst = max(worst, ratio, 1.0 / ratio)
            c_at[n] = worst
        shift = abs(c_at[128] - c_at[64])
        elapsed = time.perf_counter() - t0
        ok = shift <= 0.2 * c_at[64] and elapsed < 30.0
        _verdict(
            10,
            "energy comparability",
            ok,
            f"C = {c_at[64]:.3f} at N=64, {c_at[128]:.3f} at N=128,"
            f" shift {shift / c_at[64]:.1%} <= 20%, {elapsed:.0f}s",
        )
        assert shift <= 0.2 * c_at[64]
        assert elapsed < 30.0

    def test_criterion_11_mollifier(self):
        """Smoothing contracts every Sobolev norm and perturbs runs by O(ι)."""
        t0 = time.perf_counter()
        iotas = (0.2, 0.1, 0.05)

        g = _grid(256, 1)
        f = _powerlaw_scalar(g, np.random.default_rng(4), 4.5)
        contraction_ok = True
        for profile in ("sharp_cutoff", "smooth_bump"):
            for iota in iotas:
                spec = MollifierSpec(iota=iota, profile=profile)
                jf = ScalarField(g, mollify(g, f.data, spec))
                for order in (0, 1, 3):
                    if norm_Hn(jf, order) > norm_Hn(f, order) * (1.0 + 1e-14):
                        contraction_ok = False

        order = 3
        base = norm_Hn(f, order)
        ratios = [
            norm_Hn(
                ScalarField(g, f.data - mollify(g, f.data, MollifierSpec(iota=iota))), order - 1
            )
            / (iota * base)
            for iota in iotas
        ]
        lowpass_ok = all(np.isfinite(r) and r > 0.0 for r in ratios) and max(
            ratios
        ) <= ratios[0] * (1.0 + 1e-12)

        g2 = _grid(64, 1)
        rng = np.random.default_rng(5)
        params = ModelParams(
            epsilon=0.5, beta=0.3, mu=0.7, formulation=Formulation.GN_V
        )
        bath = BathymetryState(
            ScalarField(g2, verify.band_limited_scalar(g2, rng, 2, 0.15)), 0.3
        )
        zeta0 = 0.2 * _powerlaw_scalar(g2, rng, 3.5).data
        v0 = verify.band_limited_vector(g2, rng, 3, 0.2)
        cfg = EllipticSolveConfig(rel_tolerance=1e-12)
        finals = {}
        for iota in (0.2, 0.1, 0.05):
            state = FluidState(
                ScalarField(g2, zeta0.copy()),
                VectorField(g2, v0.copy()),
                VariableKind.V_VARIABLE,
            )
            icfg = IntegrationConfig(
                dt=0.01, t_end=0.5, mollifier=MollifierSpec(iota=iota),
                diag_stride=10**9,
            )
            rep = run(state, params, bath, icfg, cfg, CollectingSinks(), diag_order=1)
            finals[iota] = rep.final_state
        divergences = {}
        for iota in (0.2, 0.1):
            a, b = finals[iota], finals[iota / 2.0]
            divergences[iota] = math.hypot(
                g2.norm_l2(a.zeta.data - b.zeta.data),
                g2.norm_l2(a.vel.data - b.vel.data),
            )
        runs_ok = all(np.isfinite(d) and d > 0.0 for d in divergences.values()) and (
            divergences[0.1] / 0.1 <= (divergences[0.2] / 0.2) * 1.05
        )
        elapsed = time.perf_counter() - t0
        ok = contraction_ok and lowpass_ok and runs_ok and elapsed < 60.0
        _verdict(
            11,
            "mollifier",
            ok,
            f"contraction exact: {contraction_ok}, low-pass ratios bounded:"
            f" {lowpass_ok}, run divergence O(ι): {runs_ok}"
            f" (d(0.2)={divergences[0.2]:.2e}, d(0.1)={divergences[0.1]:.2e}),"
            f" {elapsed:.0f}s",
        )
        assert contraction_ok
        assert lowpass_ok
        assert runs_ok
        assert elapsed < 60.0
