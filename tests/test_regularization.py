"""Spectral smoothing family: profile algebra, symmetry, smoothed tendency."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import band_limited_scalar, band_limited_vector, tendency_args
from gnwave.diagnostics import norm_Hn
from gnwave.errors import ValidationError
from gnwave.grid import PeriodicGrid, ScalarField, VectorField
from gnwave.models import FluidState, ModelParams, VariableKind, rhs_gn_v
from gnwave.operators import BathymetryState
from gnwave.regularization import MollifierSpec, mollify, rhs_gn_v_mollified


def grid1(n=64):
    return PeriodicGrid((n,), (2.0 * np.pi,))


def powerlaw_scalar(grid, rng, decay):
    """Random field with |f̂(k)| ~ (1+|k|)^(−decay): full spectrum, known tail."""
    k2 = np.zeros(grid.spectral_shape)
    for k in grid.wavenumbers:
        k2 = k2 + k * k
    mag = (1.0 + np.sqrt(k2)) ** (-decay)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=grid.spectral_shape)
    spec = mag * np.exp(1j * phase)
    spec[(0,) * grid.dim] = 0.0
    return ScalarField(grid, grid.ifft(spec))


class TestSpecValidation:
    def test_iota_range(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\)"):
            MollifierSpec(iota=1.0)
        with pytest.raises(ValidationError, match=r"\[0, 1\)"):
            MollifierSpec(iota=-0.1)

    def test_unknown_profile(self):
        with pytest.raises(ValidationError, match="profile"):
            MollifierSpec(iota=0.1, profile="gaussian")

    def test_bump_radii(self):
        with pytest.raises(ValidationError, match="r0 < r1"):
            MollifierSpec(iota=0.1, profile="smooth_bump", r0=1.0, r1=0.5)


class TestMultiplier:
    def test_identity_at_zero(self):
        g = grid1()
        f = band_limited_scalar(g, np.random.default_rng(0), 4, 1.0)
        assert mollify(g, f, MollifierSpec(iota=0.0)) is f

    def test_sharp_cutoff_kills_high_modes(self):
        g = grid1()
        x = g.coords[0]
        spec = MollifierSpec(iota=0.2)
        kept = np.cos(5.0 * x)
        removed = np.cos(6.0 * x)
        assert np.max(np.abs(mollify(g, kept, spec) - kept)) < 1e-14
        assert np.max(np.abs(mollify(g, removed, spec))) < 1e-14

    def test_smooth_profile_shape(self):
        g = grid1(128)
        spec = MollifierSpec(iota=0.1, profile="smooth_bump", r0=0.5, r1=1.0)
        phi = spec.multiplier(g)
        k = g.wavenumbers[0]
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert np.all(phi[np.abs(0.1 * k) <= 0.5] == 1.0)
        assert np.all(phi[np.abs(0.1 * k) >= 1.0] == 0.0)
        mid = (np.abs(0.1 * k) > 0.5) & (np.abs(0.1 * k) < 1.0)
        assert np.all(np.diff(phi[mid]) <= 1e-15)

    def test_vector_componentwise(self):
        g = grid1()
        rng = np.random.default_rng(1)
        u = band_limited_vector(g, rng, 6, 1.0)
        spec = MollifierSpec(iota=0.25)
        out = mollify(g, u, spec)
        phi = spec.multiplier(g)
        expect = np.stack([g.ifft(phi * g.fft(c)) for c in u])
        assert np.max(np.abs(out - expect)) < 1e-15


class TestOperatorProperties:
    @given(seed=st.integers(0, 2**31 - 1), iota=st.floats(0.01, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_symmetric(self, seed, iota):
        g = grid1(32)
        rng = np.random.default_rng(seed)
        f = band_limited_scalar(g, rng, 10, 1.0)
        h = band_limited_scalar(g, rng, 10, 1.0)
        spec = MollifierSpec(iota=iota)
        lhs = g.inner(mollify(g, f, spec), h)
        rhs = g.inner(f, mollify(g, h, spec))
        assert abs(lhs - rhs) < 1e-13 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("profile", ["sharp_cutoff", "smooth_bump"])
    def test_contraction_all_orders(self, profile):
        g = grid1(128)
        f = powerlaw_scalar(g, np.random.default_rng(2), 3.0)
        spec = MollifierSpec(iota=0.15, profile=profile)
        jf = ScalarField(g, mollify(g, f.data, spec))
        for n in (0, 1, 3):
            assert norm_Hn(jf, n) <= norm_Hn(f, n) * (1 + 1e-14)

    def test_commutes_with_derivatives(self):
        g2 = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
        rng = np.random.default_rng(3)
        spec = MollifierSpec(iota=0.3)
        f = band_limited_scalar(g2, rng, 8, 1.0)
        u = band_limited_vector(g2, rng, 8, 1.0)
        phi = spec.multiplier(g2)

        def j(arr):
            if arr.ndim == g2.dim:
                return g2.ifft(phi * g2.fft(arr))
            return np.stack([g2.ifft(phi * g2.fft(c)) for c in arr])

        pairs = [
            (j(g2.gradient(f)), g2.gradient(j(f))),
            (j(g2.divergence(u)), g2.divergence(j(u))),
            (j(g2.curl(u)), g2.curl(j(u))),
        ]
        for a, b in pairs:
            assert np.max(np.abs(a - b)) < 1e-13 * max(np.max(np.abs(a)), 1.0)

    def test_low_pass_rate(self):
        # ι⁻¹ ‖f − J^ι f‖_{H^{n−1}} stays bounded (by its coarsest-ι value)
        # on a fixed field with algebraically decaying spectrum.
        g = grid1(256)
        f = powerlaw_scalar(g, np.random.default_rng(4), 4.5)
        n = 3
        base = norm_Hn(f, n)
        ratios = []
        for iota in (0.2, 0.1, 0.05):
            diff = ScalarField(g, f.data - mollify(g, f.data, MollifierSpec(iota=iota)))
            ratios.append(norm_Hn(diff, n - 1) / (iota * base))
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) <= ratios[0] * (1 + 1e-12)


class TestSmoothedTendency:
    def setup_state(self, iota, n=64):
        g = grid1(n)
        rng = np.random.default_rng(5)
        params = ModelParams(epsilon=0.5, beta=0.3, mu=0.7)
        bath = BathymetryState(ScalarField(g, band_limited_scalar(g, rng, 2, 0.15)), 0.3)
        state = FluidState(
            ScalarField(g, band_limited_scalar(g, rng, 3, 0.1)),
            VectorField(g, band_limited_vector(g, rng, 3, 0.2)),
            VariableKind.V_VARIABLE,
        )
        return g, state, params, bath, MollifierSpec(iota=iota)

    @staticmethod
    def vortical_state_2d(n=32):
        """A 2-D state over a bottom, whose v has a nonzero curl."""
        g = PeriodicGrid((n, n), (2.0 * np.pi, 2.0 * np.pi))
        rng = np.random.default_rng(9)
        params = ModelParams(epsilon=0.5, beta=0.3, mu=0.7)
        bath = BathymetryState(ScalarField(g, band_limited_scalar(g, rng, 2, 0.15)), 0.3)
        state = FluidState(
            ScalarField(g, band_limited_scalar(g, rng, 3, 0.1)),
            VectorField(g, band_limited_vector(g, rng, 3, 0.2)),
            VariableKind.V_VARIABLE,
        )
        assert np.max(np.abs(g.curl(state.vel.data))) > 0.1
        return g, state, params, bath

    def test_zero_iota_identical(self):
        g, state, params, bath, spec = self.setup_state(0.0)
        _, state_2d, params_2d, bath_2d = self.vortical_state_2d()
        for args in (
            tendency_args(state, params, bath),
            tendency_args(state_2d, params_2d, bath_2d),
        ):
            dz1, dv1 = rhs_gn_v(*args)
            dz2, dv2 = rhs_gn_v_mollified(*args, spec)
            assert np.array_equal(dz1, dz2)
            assert np.array_equal(dv1, dv2)

    @pytest.mark.parametrize("profile", ["sharp_cutoff", "smooth_bump"])
    def test_smoothing_in_spectrum_is_mollify(self, profile):
        """Smoothing the tendency's spectra equals mollifying the plain tendency."""
        g, state, params, bath = self.vortical_state_2d()
        spec = MollifierSpec(iota=0.15, profile=profile)
        args = tendency_args(state, params, bath)
        dz, dv = rhs_gn_v(*args)
        dz_s, dv_s = rhs_gn_v_mollified(*args, spec)
        for smoothed, plain in ((dz_s, dz), (dv_s, dv)):
            reference = mollify(g, plain, spec)
            assert not np.allclose(reference, plain)
            gap = np.max(np.abs(smoothed - reference))
            assert gap <= 1e-13 * np.max(np.abs(reference))

    def test_rest_state_fixed(self):
        g, _, params, bath, _ = self.setup_state(0.0)
        for iota in (0.0, 0.3, 0.8):
            dz, dv = rhs_gn_v_mollified(
                *tendency_args(FluidState.rest(g), params, bath), MollifierSpec(iota=iota)
            )
            assert np.max(np.abs(dz)) < 1e-14
            assert np.max(np.abs(dv)) < 1e-14

    def test_output_band_limited(self):
        g, state, params, bath, spec = self.setup_state(0.25)
        dz, dv = rhs_gn_v_mollified(*tendency_args(state, params, bath), spec)
        k = np.abs(g.wavenumbers[0])
        cut = spec.iota * k > 1.0
        assert np.max(np.abs(g.fft(dz)[cut])) < 1e-16
        assert np.max(np.abs(g.fft(dv[0])[cut])) < 1e-16

    def test_mass_flux_mean_free(self):
        g, state, params, bath, spec = self.setup_state(0.25)
        dz, _ = rhs_gn_v_mollified(*tendency_args(state, params, bath), spec)
        assert abs(g.integrate(dz)) < 1e-13 * g.norm_l2(dz)
