"""Spectral calculus tests against analytic derivatives and Parseval."""
from __future__ import annotations

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnwave import grid as grid_module
from gnwave.errors import ValidationError
from gnwave.grid import PeriodicGrid, ScalarField


def grid1(n=64, length=2.0 * np.pi) -> PeriodicGrid:
    return PeriodicGrid((n,), (length,))


def grid2(n=32, lx=2.0 * np.pi, ly=2.0 * np.pi) -> PeriodicGrid:
    return PeriodicGrid((n, n), (lx, ly))


class TestGridConstruction:
    def test_rejects_odd_point_count(self):
        with pytest.raises(ValidationError, match="even"):
            PeriodicGrid((31,), (1.0,))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValidationError):
            PeriodicGrid((4,), (1.0,))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValidationError, match="positive"):
            PeriodicGrid((16,), (0.0,))

    def test_rejects_3d(self):
        with pytest.raises(ValidationError, match="dimension"):
            PeriodicGrid((8, 8, 8), (1.0, 1.0, 1.0))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValidationError):
            PeriodicGrid((16, 16), (1.0,))

    def test_geometry_tables(self):
        g = grid2(16, lx=2.0, ly=4.0)
        assert g.dim == 2
        assert g.size == 256
        assert g.spacings == (2.0 / 16, 4.0 / 16)
        assert np.isclose(g.cell_volume, (2.0 / 16) * (4.0 / 16))
        assert g.volume == 8.0
        assert g.spectral_shape == (16, 9)


class TestTransforms:
    def test_roundtrip(self):
        g = grid2(24)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.shape)
        assert np.max(np.abs(g.ifft(g.fft(f)) - f)) < 1e-13

    def test_mean_is_zero_mode(self):
        g = grid1(32)
        f = 3.0 + np.sin(g.coords[0])
        assert abs(g.fft(f)[0].real - 3.0) < 1e-14

    def test_parseval(self):
        g = grid2(32, lx=3.0, ly=5.0)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.shape)
        spec = g.fft(f)
        spectral = g.volume * float(np.sum(g.mode_multiplicity * np.abs(spec) ** 2))
        physical = g.inner(f, f)
        assert abs(spectral - physical) <= 1e-12 * physical

    @pytest.mark.parametrize("shape", [(64,), (16, 24)])
    def test_stacked_transform_matches_per_component(self, shape):
        """rfft/irfft act on the trailing axes: one call per stack, same numbers."""
        g = PeriodicGrid(shape, (2.0 * np.pi,) * len(shape))
        rng = np.random.default_rng(4)
        u = rng.standard_normal((g.dim,) + g.shape)
        axes = tuple(range(g.dim))
        spec = g.rfft(u)
        for i in range(g.dim):
            assert np.array_equal(spec[i], np.fft.rfftn(u[i], axes=axes))
            assert np.array_equal(
                g.irfft(spec)[i], np.fft.irfftn(spec[i], s=g.shape, axes=axes)
            )

    @pytest.mark.parametrize("fallback", [False, True], ids=["gufunc", "np.fft"])
    @pytest.mark.parametrize("stack", [(), (2,), (3,)])
    @pytest.mark.parametrize("n", [8, 96, 250, 256])
    def test_1d_transforms_match_numpy(self, monkeypatch, n, stack, fallback):
        """Both 1-D paths, the pocketfft gufuncs and the np.fft fallback, give
        numpy's own numbers bit for bit."""
        if fallback:
            monkeypatch.setattr(grid_module, "_pocketfft", None)
        g = grid1(n)
        f = np.random.default_rng(n).standard_normal(stack + (n,))
        spec = g.rfft(f)
        assert np.array_equal(spec, np.fft.rfft(f))
        assert np.array_equal(g.irfft(spec), np.fft.irfft(spec, n))

    @pytest.mark.parametrize("fallback", [False, True], ids=["gufunc", "np.fft"])
    @pytest.mark.parametrize("stack", [(), (2,), (3,)])
    @pytest.mark.parametrize("shape", [(128, 128), (64, 32), (8, 16)])
    def test_2d_transforms_match_numpy(self, monkeypatch, shape, stack, fallback):
        """Both 2-D paths, the pocketfft gufuncs through the grid's work buffer
        and the np.fft fallback, give numpy's own numbers bit for bit."""
        if fallback:
            monkeypatch.setattr(grid_module, "_pocketfft", None)
        g = PeriodicGrid(shape, (2.0 * np.pi, 3.0))
        f = np.random.default_rng(shape[1]).standard_normal(stack + shape)
        spec = g.rfft(f)
        assert np.array_equal(spec, np.fft.rfftn(f, axes=(-2, -1)))
        assert np.array_equal(g.irfft(spec), np.fft.irfftn(spec, s=shape, axes=(-2, -1)))

    @pytest.mark.parametrize("shape", [(64,), (16, 24)])
    @pytest.mark.parametrize("stack", [(), (2,)])
    def test_transforms_return_fresh_arrays(self, shape, stack):
        """Successive results share no memory, a later call leaves an earlier
        result as it was, and irfft leaves its input spectrum unchanged."""
        g = PeriodicGrid(shape, (2.0 * np.pi,) * len(shape))
        rng = np.random.default_rng(5)
        f1, f2 = rng.standard_normal((2,) + stack + shape)
        s1 = g.rfft(f1)
        s1_before = s1.copy()
        s2 = g.rfft(f2)
        assert not np.shares_memory(s1, s2)
        assert np.array_equal(s1, s1_before)
        b1 = g.irfft(s1)
        b1_before = b1.copy()
        b2 = g.irfft(s2)
        assert not np.shares_memory(b1, b2)
        assert np.array_equal(b1, b1_before)
        assert np.array_equal(s1, s1_before)
        assert np.array_equal(g.rfft(f2), s2)

    @pytest.mark.parametrize("fallback", [False, True], ids=["gufunc", "np.fft"])
    @pytest.mark.parametrize("shape", [(64,), (16, 24)])
    @pytest.mark.parametrize("stack", [(), (2,)])
    def test_transforms_write_into_out(self, monkeypatch, shape, stack, fallback):
        """With ``out``, both paths write the numbers of a fresh result into
        it and return it."""
        if fallback:
            monkeypatch.setattr(grid_module, "_pocketfft", None)
        g = PeriodicGrid(shape, (2.0 * np.pi,) * len(shape))
        f = np.random.default_rng(6).standard_normal(stack + shape)
        spec = np.empty(stack + g.spectral_shape, dtype=np.complex128)
        back = np.empty(stack + shape)
        assert g.rfft(f, out=spec) is spec
        assert np.array_equal(spec, g.rfft(f))
        assert g.irfft(spec, out=back) is back
        assert np.array_equal(back, g.irfft(spec))

    @pytest.mark.parametrize("shape", [(64,), (16, 24)])
    def test_contract_matches_expression_form(self, shape):
        """``Σ_i symbol_i spec_i`` with each product in a work array of the grid
        equals the sum of fresh products bit for bit, into ``out`` or not, and
        a held result survives the next call."""
        g = PeriodicGrid(shape, (2.0 * np.pi,) * len(shape))
        rng = np.random.default_rng(7)
        specs = [g.rfft(rng.standard_normal((g.dim,) + shape)) for _ in range(2)]
        expected = []
        for spec in specs:
            total = g.ik[0] * spec[0]
            for axis in range(1, g.dim):
                total = total + g.ik[axis] * spec[axis]
            expected.append(total)
        first = g.contract(g.ik, specs[0])
        out = np.empty(g.spectral_shape, dtype=np.complex128)
        assert g.contract(g.ik, specs[1], out=out) is out
        assert np.array_equal(first, expected[0]) and np.array_equal(out, expected[1])
        u, v = rng.standard_normal((2, g.dim) + shape)
        assert np.array_equal(g.contract(u, v), np.einsum("i...,i...->...", u, v))

    def test_work_arrays_belong_to_the_calling_thread(self):
        """Each thread gets its own solve workspace and half spectra; the
        read-only tables are one object for all threads."""
        g = grid2(16)
        seen = []

        def collect():
            seen.append((g.solve_work, g._half_spectrum(()), g._half_spectrum((2,)), g.ik))

        worker = threading.Thread(target=collect)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        collect()
        collect()
        (w_work, *w_halves, w_ik), (c_work, *c_halves, c_ik), again = seen
        assert again[0] is c_work and again[1] is c_halves[0]
        for a, b in zip(w_work + tuple(w_halves), c_work + tuple(c_halves)):
            assert not np.shares_memory(a, b)
        assert w_ik is c_ik

    def test_concurrent_transforms_give_the_serial_bits(self):
        """Four threads, more than the cores, transforming different arrays
        on one 2-D grid at once (through its half spectra and contract's
        products), with the interpreter switching threads every microsecond,
        get the bits of the same transforms made one after another."""
        g = grid2(32, ly=3.0)
        rng = np.random.default_rng(8)
        inputs = [rng.standard_normal((10, g.dim) + g.shape) for _ in range(4)]

        def transforms(fields):
            return [(g.rfft(f), g.irfft(g.rfft(f)), g.divergence(f)) for f in fields]

        expected = [transforms(fields) for fields in inputs]
        start = threading.Barrier(len(inputs))

        def run(fields):
            start.wait(timeout=30)
            return transforms(fields)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(inputs)) as workers:
                got = [f.result(timeout=60) for f in [workers.submit(run, x) for x in inputs]]
        finally:
            sys.setswitchinterval(interval)
        for mine, serial in zip(got, expected):
            for a, b in zip(mine, serial):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_integrate_trig_polynomial(self):
        g = grid1(16, length=4.0)
        x = g.coords[0]
        f = 2.0 + np.cos(2.0 * np.pi * x / 4.0)
        assert abs(g.integrate(f) - 8.0) < 1e-13


class TestDerivatives:
    def test_gradient_1d_analytic(self):
        g = grid1(64)
        x = g.coords[0]
        f = np.exp(np.sin(x))
        exact = np.cos(x) * np.exp(np.sin(x))
        assert np.max(np.abs(g.gradient(f)[0] - exact)) < 1e-10

    def test_gradient_2d_analytic(self):
        g = grid2(48, lx=2.0 * np.pi, ly=4.0 * np.pi)
        x, y = g.coords
        f = np.exp(np.sin(x)) * np.cos(y / 2.0)
        gx = np.cos(x) * np.exp(np.sin(x)) * np.cos(y / 2.0)
        gy = -0.5 * np.exp(np.sin(x)) * np.sin(y / 2.0)
        grad = g.gradient(f)
        assert np.max(np.abs(grad[0] - gx)) < 1e-10
        assert np.max(np.abs(grad[1] - gy)) < 1e-10

    def test_divergence_matches_sum_of_gradients(self):
        g = grid2(32)
        x, y = g.coords
        u = np.stack((np.sin(2 * x) * np.cos(y), np.cos(x) * np.sin(3 * y)))
        exact = 2 * np.cos(2 * x) * np.cos(y) + 3 * np.cos(x) * np.cos(3 * y)
        assert np.max(np.abs(g.divergence(u) - exact)) < 1e-11

    def test_div_grad_is_diagonal_laplacian(self):
        g = grid2(32, lx=2.0, ly=3.0)
        rng = np.random.default_rng(2)
        f = rng.standard_normal(g.shape)
        via_ops = g.divergence(g.gradient(f))
        via_symbol = g.ifft(g.laplacian_multiplier * g.fft(f))
        assert np.max(np.abs(via_ops - via_symbol)) < 1e-10 * max(np.max(np.abs(via_symbol)), 1.0)

    def test_curl_of_gradient_vanishes(self):
        g = grid2(32)
        rng = np.random.default_rng(3)
        f = g.dealias(rng.standard_normal(g.shape))
        c = g.curl(g.gradient(f))
        assert np.max(np.abs(c)) < 1e-10

    def test_curl_analytic(self):
        g = grid2(32)
        x, y = g.coords
        u = np.stack((np.sin(y), np.sin(2 * x)))
        exact = 2 * np.cos(2 * x) - np.cos(y)
        assert np.max(np.abs(g.curl(u) - exact)) < 1e-11

    def test_curl_1d_is_zero(self):
        g = grid1(16)
        u = np.stack((np.sin(g.coords[0]),))
        assert np.max(np.abs(g.curl(u))) == 0.0

    def test_nyquist_zeroed_in_first_derivative(self):
        g = grid1(16)
        x = g.coords[0]
        f = np.cos(8.0 * x)  # pure Nyquist mode
        assert np.max(np.abs(g.gradient(f)[0])) < 1e-12

    def test_perp_rotation(self):
        g = grid2(16)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2,) + g.shape)
        p = g.perp(u)
        assert np.allclose(p[0], -u[1]) and np.allclose(p[1], u[0])
        assert abs(g.inner(u, p)) < 1e-12 * g.inner(u, u)
        assert np.allclose(g.perp(p), -u)

    def test_perp_rejects_1d(self):
        g = grid1(16)
        with pytest.raises(ValidationError, match="2D"):
            g.perp(np.zeros((1, 16)))


class TestDealiasing:
    @pytest.mark.parametrize("shape", [(8,), (10,), (96,), (250,), (16, 10), (128, 128)])
    def test_band_is_largest_kept_mode(self, shape):
        """``band`` is, per axis, the largest |m| the dealias mask keeps."""
        g = PeriodicGrid(shape, (2.0 * np.pi,) * len(shape))
        kept = [
            int(np.max(np.abs(np.broadcast_to(m, g.spectral_shape))[g.dealias_mask]))
            for m in g.mode_numbers
        ]
        assert g.band == tuple(kept)
        assert all(type(cut) is int for cut in g.band)

    def test_cutoff_product_of_edge_modes(self):
        # cos²(m x) = 1/2 + cos(2m x)/2; with m at the cutoff the double mode
        # must be projected away exactly.
        g = grid1(32)
        m = 32 // 3
        f = np.cos(m * g.coords[0])
        prod = g.multiply_dealiased(f, f)
        assert np.max(np.abs(prod - 0.5)) < 1e-13

    def test_resolved_product_untouched(self):
        g = grid1(64)
        x = g.coords[0]
        f, h = np.cos(3 * x), np.sin(5 * x)
        assert np.max(np.abs(g.multiply_dealiased(f, h) - f * h)) < 1e-13

    def test_projection_idempotent(self):
        g = grid2(24)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(g.shape)
        once = g.dealias(f)
        assert np.max(np.abs(g.dealias(once) - once)) < 1e-13

    def test_dealias_stacked_vector(self):
        g = grid2(24)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((2,) + g.shape)
        du = g.dealias(u)
        assert du.shape == u.shape
        for i in range(2):
            assert np.allclose(du[i], g.dealias(u[i]))

    def test_refinement_consistency(self):
        # A band-limited field has identical derivatives on refined grids.
        coarse, fine = grid1(32), grid1(64)
        fc = np.cos(3 * coarse.coords[0]) + 0.5 * np.sin(7 * coarse.coords[0])
        ff = np.cos(3 * fine.coords[0]) + 0.5 * np.sin(7 * fine.coords[0])
        dc = coarse.gradient(fc)[0]
        df = fine.gradient(ff)[0]
        assert np.max(np.abs(df[::2] - dc)) < 1e-12


class TestFields:
    def test_scalar_field_immutable(self):
        g = grid1(16)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises((ValueError, RuntimeError)):
            f.data[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.data = np.zeros(g.shape)  # type: ignore[misc]

    def test_rejects_shape_mismatch(self):
        g = grid1(16)
        with pytest.raises(ValidationError, match="shape"):
            ScalarField(g, np.ones(8))

    def test_rejects_non_finite(self):
        g = grid1(16)
        bad = np.ones(g.shape)
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            ScalarField(g, bad)

    def test_grid_methods_on_field_data(self):
        """The calculus lives on the grid and takes a field's array."""
        g = grid2(32)
        x, y = g.coords
        f = ScalarField(g, np.sin(x) * np.cos(y))
        grad = g.gradient(f.data)
        assert np.allclose(g.divergence(grad), -2.0 * f.data)
        assert np.max(np.abs(g.curl(grad))) < 1e-10
        assert np.allclose(np.einsum("i...,i...->...", g.perp(grad), grad), 0.0)
        assert np.allclose(g.dealias(f.data), f.data)
        assert np.allclose(g.multiply_dealiased(f.data, f.data), f.data * f.data)


class TestProperties:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval_random(self, seed):
        g = grid1(32, length=5.0)
        f = np.random.default_rng(seed).standard_normal(g.shape)
        spec = g.fft(f)
        spectral = g.volume * float(np.sum(g.mode_multiplicity * np.abs(spec) ** 2))
        assert abs(spectral - g.inner(f, f)) <= 1e-11 * max(g.inner(f, f), 1e-30)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dealias_is_orthogonal_projection(self, seed):
        g = grid1(32)
        f = np.random.default_rng(seed).standard_normal(g.shape)
        pf = g.dealias(f)
        # projection: idempotent, contractive, and f - Pf ⟂ Pf
        assert g.norm_l2(pf) <= g.norm_l2(f) + 1e-12
        assert abs(g.inner(f - pf, pf)) < 1e-10 * max(g.inner(f, f), 1e-30)

    @given(seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_gradient_linear(self, seed, a, b):
        g = grid1(32)
        rng = np.random.default_rng(seed)
        f, h = rng.standard_normal((2,) + g.shape)
        lhs = g.gradient(a * f + b * h)
        rhs = a * g.gradient(f) + b * g.gradient(h)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + abs(a) + abs(b))
