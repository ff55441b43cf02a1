import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs, solve_banded

from qnls import grids
from qnls.grids import (FieldState, GridSpec, apply_laplacian, boundary_mass_fraction,
                        grad_sq_integral, integrate, norm_sq, propagator,
                        quadrature_weights, radial_laplacian_banded, radius_sq,
                        read_snapshot, read_snapshot_raw, shifted_solver, spectral_shift,
                        symmetric_decreasing_rearrangement, weighted_density,
                        write_snapshot)
from qnls.nonlinearity import builtin_model


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec("hex", 1, 64, 10.0)
        with pytest.raises(ValueError):
            GridSpec("cartesian", 4, 64, 10.0)
        with pytest.raises(ValueError):
            GridSpec("radial", 6, 64, 10.0)
        with pytest.raises(ValueError):
            GridSpec("radial", 3, 4, 10.0)
        with pytest.raises(ValueError):
            GridSpec("radial", 3, 64, -1.0)
        for extent in (np.inf, np.nan):
            with pytest.raises(ValueError, match="extent must be positive and finite"):
                GridSpec("cartesian", 1, 64, extent)

    def test_axis_and_spacing(self):
        g = GridSpec("cartesian", 1, 8, 4.0)
        assert g.h == 1.0
        assert np.allclose(g.axis(), np.arange(-4, 4))
        r = GridSpec("radial", 3, 8, 4.0)
        assert r.h == 0.5
        assert r.axis()[0] == 0.0

    def test_scaled(self):
        g = GridSpec("radial", 3, 64, 10.0)
        assert g.scaled(2.0).extent == 20.0
        assert g.scaled(2.0).N == g.N


class TestCartesianOperators:
    @pytest.mark.parametrize("N,extent,m,bound", [
        pytest.param(256, 20.0, 7, 1e-11, id="N256-m7"),
        pytest.param(128, 10.0, 2, 1e-12, id="N128-m2")])
    def test_plane_wave_eigenfunction(self, N, extent, m, bound):
        g = GridSpec("cartesian", 1, N, extent)
        xi0 = np.pi * m / g.extent  # on-grid wavenumber
        f = np.exp(1j * xi0 * g.axis())
        assert np.max(np.abs(apply_laplacian(g, f) + xi0**2 * f)) < bound

    def test_constant_field(self):
        g = GridSpec("cartesian", 2, 32, 5.0)
        f = np.ones(g.shape, dtype=complex)
        assert np.max(np.abs(apply_laplacian(g, f))) < 1e-13

    def test_gaussian_integral(self):
        g = GridSpec("cartesian", 1, 512, 20.0)
        x = g.axis()
        assert integrate(g, np.exp(-x**2)) == pytest.approx(np.sqrt(np.pi), abs=1e-12)

    def test_zero_integral(self):
        g = GridSpec("cartesian", 1, 64, 5.0)
        assert integrate(g, np.zeros(64)) == 0.0

    def test_integrate_linear_positive(self):
        g = GridSpec("cartesian", 1, 128, 5.0)
        rng = np.random.default_rng(0)
        f, h = rng.uniform(size=128), rng.uniform(size=128)
        assert integrate(g, 2 * f + 3 * h) == pytest.approx(
            2 * integrate(g, f) + 3 * integrate(g, h))
        assert integrate(g, f) > 0

    def test_grad_sq_plane_wave(self):
        g = GridSpec("cartesian", 1, 128, 10.0)
        xi0 = np.pi * 3 / g.extent
        f = np.exp(1j * xi0 * g.axis())
        assert grad_sq_integral(g, f) == pytest.approx(xi0**2 * 2 * g.extent, rel=1e-13)

    def test_grad_sq_gaussian(self):
        g = GridSpec("cartesian", 1, 512, 20.0)
        f = np.exp(-g.axis() ** 2).astype(complex)
        assert grad_sq_integral(g, f) == pytest.approx(np.sqrt(np.pi / 2), abs=1e-10)

    def test_grad_sq_constant(self):
        g = GridSpec("cartesian", 1, 64, 5.0)
        assert grad_sq_integral(g, np.ones(64, dtype=complex)) < 1e-13


class TestRadialOperators:
    def test_sinc_eigenfunction_order2(self):
        # Lap(sin r / r) = -sin r / r in three dimensions
        errs = {}
        for N in (256, 512):
            g = GridSpec("radial", 3, N, 10.0)
            r = g.axis()
            f = np.ones(N, dtype=complex)
            f[1:] = np.sin(r[1:]) / r[1:]
            lap = apply_laplacian(g, f)
            interior = slice(0, int(0.8 * N))
            errs[N] = np.max(np.abs(lap + f)[interior])
        assert errs[256] / errs[512] == pytest.approx(4.0, rel=0.15)

    def test_radial_constant_interior(self):
        g = GridSpec("radial", 4, 128, 10.0)
        f = np.ones(128, dtype=complex)
        lap = apply_laplacian(g, f)
        assert np.max(np.abs(lap[:100])) < 1e-12  # away from the Dirichlet edge

    def test_gaussian_integral_n5(self):
        g = GridSpec("radial", 5, 2048, 12.0)
        r = g.axis()
        assert integrate(g, np.exp(-r**2)) == pytest.approx(np.pi**2.5, abs=1e-8)

    def test_gaussian_integral_n1_halfline(self):
        g = GridSpec("radial", 1, 1024, 15.0)
        r = g.axis()
        assert integrate(g, np.exp(-r**2)) == pytest.approx(np.sqrt(np.pi), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_banded_matches_matrix_free(self, n, dtype):
        g = GridSpec("radial", n, 64, 8.0)
        ab = radial_laplacian_banded(g)
        rng = np.random.default_rng(1)
        v = rng.normal(size=64).astype(dtype)
        if dtype is complex:
            v += 1j * rng.normal(size=64)
        dense = np.zeros((64, 64))
        for i in range(64):
            dense[i, i] = ab[1, i]
            if i + 1 < 64:
                dense[i, i + 1] = ab[0, i + 1]
            if i - 1 >= 0:
                dense[i, i - 1] = ab[2, i - 1]
        assert np.max(np.abs(dense @ v - apply_laplacian(g, v))) < 1e-12


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_quadratures_match_derivative_and_modulus(self, n, dtype):
        # K is the quadratic form of -Lap_h in the quadrature inner product,
        # and the squared norm skips the square root; against the plain
        # formulas both agree to rounding
        g = GridSpec("radial", n, 301, 9.0)
        rng = np.random.default_rng(n)
        v = rng.normal(size=301).astype(dtype)
        if dtype is complex:
            v += 1j * rng.normal(size=301)
        w = quadrature_weights(g)
        grad_ref = -np.real(np.sum(w * np.conj(v) * apply_laplacian(g, v)))
        assert grad_sq_integral(g, v) == pytest.approx(grad_ref, rel=1e-14, abs=0.0)
        assert norm_sq(g, v) == pytest.approx(np.sum(w * np.abs(v) ** 2), rel=1e-14, abs=0.0)


class TestConservativeRadialOperator:
    """Summation by parts: W Lap_h is symmetric, so -Lap_h is self-adjoint in
    the quadrature inner product and Crank-Nicolson keeps the charge."""

    grids = [GridSpec("radial", n, N, extent) for n in range(1, 6)
             for N, extent in ((256, 12.0), (101, 3.0))]

    @pytest.mark.parametrize("g", grids, ids=str)
    def test_weighted_laplacian_symmetric(self, g):
        ab, w = radial_laplacian_banded(g), quadrature_weights(g)
        upper, lower = w[:-1] * ab[0, 1:], w[1:] * ab[2, :-1]  # (W A)[i, i+1], (W A)[i+1, i]
        assert np.max(np.abs(upper - lower)) <= 1e-15 * np.max(np.abs(w * ab[1]))

    @pytest.mark.parametrize("g", grids, ids=str)
    def test_laplacian_of_radius_squared(self, g):
        # exact in exact arithmetic away from the Dirichlet node; rounding
        # enters through r_{i+1}^2 - r_i^2 over h^2
        lap = apply_laplacian(g, radius_sq(g))
        assert np.max(np.abs(lap[:-1] - 2 * g.n)) <= 1e-14 * g.N**2

    @pytest.mark.parametrize("g", grids, ids=str)
    @pytest.mark.parametrize("dt", [1e-3, 0.5])
    def test_crank_nicolson_keeps_charge(self, g, dt):
        rng = np.random.default_rng(g.N + g.n)
        u = rng.normal(size=(3, g.N)) + 1j * rng.normal(size=(3, g.N))
        step = propagator(g, dt, np.array([1.0, 2.0, 0.5]), np.array([0.5, -1.0, 0.0]),
                          np.array([1.0, 0.5, 2.0]))
        out = step(u)
        for k in range(3):
            assert norm_sq(g, out[k]) == pytest.approx(norm_sq(g, u[k]), rel=1e-13, abs=0.0)


def _banded_reference(grid, shift, scale, rhs):
    """(shift_k I - scale_k Lap_h)^{-1} rhs_k by scipy's general banded solver."""
    lap = radial_laplacian_banded(grid)
    out = []
    for s, c, b in zip(shift, scale, rhs):
        ab = -c * lap
        ab[1] += s
        out.append(solve_banded((1, 1), ab, b))
    return np.array(out)


def _per_component_reference(grid, shift, scale, rhs):
    """(shift_k I - scale_k Lap_h)^{-1} rhs_k by one LAPACK ?gttrf/?gttrs
    pair per component."""
    ab = radial_laplacian_banded(grid)
    out = []
    for s, c, b in zip(shift, scale, rhs):
        bands = (-c * ab[2, :-1], s - c * ab[1], -c * ab[0, 1:])
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), bands)
        *lu, info = gttrf(*bands)
        assert info == 0
        x, info = gttrs(*lu, b)
        assert info == 0
        out.append(x)
    return np.array(out)


class TestFactoredRadialSolve:
    radial_grids = st.builds(lambda n, N, extent: GridSpec("radial", n, N, extent),
                             st.integers(1, 5), st.integers(8, 300), st.floats(0.5, 40.0))

    @staticmethod
    def assert_matches(grid, shift, scale, rhs):
        x = shifted_solver(grid, shift, scale)(rhs)
        ref = _banded_reference(grid, shift, scale, rhs)
        assert x.dtype == ref.dtype
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(grid=radial_grids, l=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(1e-6, 1.0))
    def test_crank_nicolson_matrices(self, grid, l, seed, dt):
        # complex left-hand matrices (1 + c beta) I - c gamma Lap_h, c = i dt/(2 alpha)
        rng = np.random.default_rng(seed)
        alpha, gamma = rng.uniform(0.2, 4.0, l), rng.uniform(0.1, 5.0, l)
        beta = rng.uniform(-2.0, 2.0, l)
        c = 1j * dt / (2.0 * alpha)
        rhs = rng.normal(size=(l, grid.N)) + 1j * rng.normal(size=(l, grid.N))
        self.assert_matches(grid, 1.0 + c * beta, c * gamma, rhs)

    @settings(max_examples=60, deadline=None)
    @given(grid=radial_grids, l=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_real_resolvents(self, grid, l, seed):
        # real elliptic resolvents b I - gamma Lap_h with b > 0
        rng = np.random.default_rng(seed)
        b, gamma = 10.0 ** rng.uniform(-2.0, 1.0, l), rng.uniform(0.1, 5.0, l)
        self.assert_matches(grid, b, gamma, rng.normal(size=(l, grid.N)))

    @settings(max_examples=60, deadline=None)
    @given(grid=radial_grids, l=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(1e-6, 1.0), real=st.booleans())
    def test_block_solve_equals_per_component_solves(self, grid, l, seed, dt, real):
        # one block factorization of the stack against one ?gttrf/?gttrs pair
        # per component: pivoting never crosses a zero seam, so bit for bit
        rng = np.random.default_rng(seed)
        if real:
            shift, scale = 10.0 ** rng.uniform(-2.0, 1.0, l), rng.uniform(0.1, 5.0, l)
            rhs = rng.normal(size=(l, grid.N))
        else:
            c = 1j * dt / (2.0 * rng.uniform(0.2, 4.0, l))
            shift, scale = 1.0 + c * rng.uniform(-2.0, 2.0, l), c * rng.uniform(0.1, 5.0, l)
            rhs = rng.normal(size=(l, grid.N)) + 1j * rng.normal(size=(l, grid.N))
        x = shifted_solver(grid, shift, scale)(rhs)
        ref = _per_component_reference(grid, shift, scale, rhs)
        assert x.dtype == ref.dtype and x.shape == rhs.shape
        assert np.array_equal(x, ref)

    def test_singular_matrix_raises(self):
        # a zero diagonal with zero off-diagonals leaves a zero pivot
        g = GridSpec("radial", 3, 16, 4.0)
        with pytest.raises(np.linalg.LinAlgError, match="dgttrf info="):
            shifted_solver(g, [0.0], [0.0])


class TestVarianceWeights:
    def test_radius_sq_multiply(self):
        g = GridSpec("cartesian", 1, 512, 15.0)
        x = g.axis()
        moment = integrate(g, radius_sq(g) * np.exp(-2 * x**2))
        assert moment == pytest.approx(np.sqrt(np.pi / 2) / 4, abs=1e-10)  # int x^2 e^{-2x^2}

    def test_zero_field(self):
        g = GridSpec("radial", 3, 64, 5.0)
        assert np.all(radius_sq(g) * np.zeros(64) == 0.0)

    @pytest.mark.parametrize("shape", [(3, 64), (2, 16, 16)])
    def test_weighted_density_matches_component_loop(self, shape):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.5, 2.0, shape[0])
        for f in (rng.normal(size=shape) + 1j * rng.normal(size=shape), rng.normal(size=shape)):
            loop = sum(wk * np.abs(fk) ** 2 for wk, fk in zip(w, f))
            dens = weighted_density(w, f)
            assert dens.shape == shape[1:] and dens.dtype == np.float64
            assert np.allclose(dens, loop, rtol=8 * np.finfo(float).eps, atol=0.0)


class TestRearrangement:
    def test_fixed_point(self):
        g = GridSpec("radial", 3, 256, 10.0)
        f = np.exp(-g.axis() ** 2)
        out = symmetric_decreasing_rearrangement(g, f)
        assert out.dtype == np.float64 and np.max(np.abs(out - f)) < 1e-12

    def test_two_bump_cartesian_exact(self):
        g = GridSpec("cartesian", 1, 256, 10.0)
        x = g.axis()
        f = np.exp(-((x - 3) ** 2)) + 0.7 * np.exp(-((x + 4) ** 2))
        v = symmetric_decreasing_rearrangement(g, f)
        assert abs(norm_sq(g, v) - norm_sq(g, f)) < 1e-10
        char = np.argmin(np.abs(x))
        assert np.all(np.diff(v[char:]) <= 1e-14)
        assert v[char] == np.max(v)

    def test_cartesian_kinetic_decreases_interaction_increases(self):
        # 100 random smooth fields; simultaneous center-out placement keeps the
        # charge exact, can only lower the Dirichlet sum, and raises the
        # interaction for super-modular couplings
        m = builtin_model("shg3")
        g = GridSpec("cartesian", 1, 128, 10.0)
        x = g.axis()
        rng = np.random.default_rng(11)
        from qnls import functionals as fn
        for _ in range(100):
            comps = []
            for _k in range(3):
                c = sum(rng.uniform(0.2, 1.0) * np.exp(-((x - rng.uniform(-5, 5)) ** 2)
                                                       / rng.uniform(0.5, 2.0))
                        for _ in range(3))
                comps.append(c)
            comps = np.stack(comps).astype(complex)
            rearr = np.stack([symmetric_decreasing_rearrangement(g, c) for c in comps])
            st, st_r = FieldState(m, g, comps, 0.0), FieldState(m, g, rearr, 0.0)
            assert abs(fn.charge(st_r) - fn.charge(st)) <= 1e-10 * fn.charge(st)
            assert fn.kinetic(st_r) <= fn.kinetic(st) + 1e-10
            assert fn.interaction(st_r) >= fn.interaction(st) - 1e-10

    def test_radial_rebinning(self):
        g = GridSpec("radial", 3, 512, 10.0)
        r = g.axis()
        f = np.exp(-((r - 3) ** 2)) + 0.5 * np.exp(-(r**2))
        v = symmetric_decreasing_rearrangement(g, f)
        assert np.all(np.diff(v) <= 1e-12)
        # weighted L1 is conserved exactly by the quantile averaging
        assert integrate(g, v) == pytest.approx(integrate(g, f), rel=1e-12)
        # L2 within quadrature resolution
        assert norm_sq(g, v) == pytest.approx(norm_sq(g, f), rel=1e-3)

    def test_negative_rejected(self):
        g = GridSpec("cartesian", 1, 64, 5.0)
        with pytest.raises(ValueError):
            symmetric_decreasing_rearrangement(g, -np.ones(64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            symmetric_decreasing_rearrangement(GridSpec("radial", 3, 64, 5.0), np.ones(63))

    def test_cartesian_2d_unsupported(self):
        g = GridSpec("cartesian", 2, 16, 5.0)
        with pytest.raises(ValueError):
            symmetric_decreasing_rearrangement(g, np.ones(g.shape))


class TestFieldState:
    def test_shape_validation(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 64, 5.0)
        with pytest.raises(ValueError):
            FieldState(m, g, np.zeros((3, 64), dtype=complex), 0.0)

    def test_immutability(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 64, 5.0)
        src = np.zeros((2, 64), dtype=complex)
        st = FieldState(m, g, src, 0.0)
        src[0, 0] = 5.0  # the state took a copy
        assert st.components[0, 0] == 0.0
        with pytest.raises(ValueError):
            st.components[0, 0] = 1.0

    def test_linf(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 64, 5.0)
        comps = np.zeros((2, 64), dtype=complex)
        comps[0, 3] = 3.0 + 4.0j
        st = FieldState(m, g, comps, 0.0)
        assert np.allclose(st.linf(), [5.0, 0.0])

    def test_boundary_mass(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 256, 10.0)
        x = g.axis()
        tight = FieldState(m, g, np.stack([np.exp(-x**2)] * 2).astype(complex), 0.0)
        assert boundary_mass_fraction(tight) < 1e-12
        wide = FieldState(m, g, np.stack([np.exp(-((x / 8) ** 2))] * 2).astype(complex), 0.0)
        assert boundary_mass_fraction(wide) > 1e-3


class TestRealCartesianLaplacian:
    @pytest.mark.parametrize("n,N", [(1, 64), (1, 63), (2, 32), (2, 31), (3, 16), (3, 15)])
    def test_matches_complex_path(self, n, N):
        g = GridSpec("cartesian", n, N, 3.0)
        f = np.random.default_rng(N).normal(size=(2,) + g.shape)
        lap = apply_laplacian(g, f)
        ref = apply_laplacian(g, f.astype(complex))
        assert lap.dtype == np.float64 and lap.shape == f.shape
        assert np.max(np.abs(lap - np.real(ref))) <= 1e-13 * np.max(np.abs(ref))


def _numpy_spectral_reference(g):
    """numpy.fft versions of the Cartesian spectral operators, built from
    their definitions: wavenumbers xi = 2 pi fftfreq(N, h) per axis."""
    axes = tuple(range(-g.n, 0))
    k1 = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.h)
    ks = np.meshgrid(*([k1] * g.n), indexing="ij")
    ksq = sum(k**2 for k in ks)
    half = ksq[..., :g.N // 2 + 1]
    return {
        "lap_real": lambda f: np.fft.irfftn(-half * np.fft.rfftn(f, axes=axes), s=g.shape,
                                            axes=axes),
        "lap_complex": lambda u: np.fft.ifftn(-ksq * np.fft.fftn(u, axes=axes), axes=axes),
        "solve": lambda shift, scale, f: np.fft.irfftn(
            np.fft.rfftn(f, axes=axes) / np.stack([c * half + s for s, c in zip(shift, scale)]),
            s=g.shape, axes=axes),
        "step": lambda dt, a, b, c, u: np.fft.ifftn(
            np.stack([np.exp(1j * dt / ak * (-ck * ksq - bk)) for ak, bk, ck in zip(a, b, c)])
            * np.fft.fftn(u, axes=axes), axes=axes),
        "grad_sq": lambda u: g.h**g.n / g.N**g.n * np.sum(ksq * np.abs(np.fft.fftn(u))**2),
        "shift": lambda y, u: np.fft.ifft(np.fft.fft(u, axis=-1) * np.exp(-1j * k1 * y), axis=-1),
    }


class TestSpectralOperatorsMatchNumpy:
    """Every Cartesian operator agrees to 1e-13 relative with its numpy.fft
    reference built from the definitions, and leaves its input byte-identical."""

    @staticmethod
    def _close(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,N", [(1, 64), (1, 63), (2, 32), (2, 31), (3, 16), (3, 15)])
    def test_against_numpy_fft(self, n, N):
        g = GridSpec("cartesian", n, N, 3.0)
        ref = _numpy_spectral_reference(g)
        rng = np.random.default_rng(N)
        f = rng.normal(size=(2,) + g.shape)
        u = f + 1j * rng.normal(size=f.shape)
        keep_f, keep_u = f.tobytes(), u.tobytes()
        shift, scale = np.array([1.5, 0.5]), np.array([1.0, 2.0])
        alpha, beta, gamma = np.array([1.0, 2.0]), np.array([0.5, -0.3]), np.array([1.0, 0.5])

        lap = apply_laplacian(g, f)
        assert lap.dtype == np.float64
        self._close(lap, ref["lap_real"](f))
        self._close(apply_laplacian(g, u), ref["lap_complex"](u))
        solve = shifted_solver(g, shift, scale)
        solved = solve(f)
        assert solved.dtype == np.float64
        self._close(solved, ref["solve"](shift, scale, f))
        # a caller-owned output buffer changes no bit and leaves rhs alone
        buf = np.empty_like(f)
        assert solve(f, out=buf) is buf and buf.tobytes() == solved.tobytes()
        step = propagator(g, 0.1, alpha, beta, gamma)
        self._close(step(u), ref["step"](0.1, alpha, beta, gamma, u))
        # the in-place transform that Stepper.step asks for changes no bit
        work = u.copy()
        assert step(work, overwrite_x=True) is work and np.array_equal(work, step(u))
        self._close(grad_sq_integral(g, u[0]), ref["grad_sq"](u[0]))
        # a single real field takes the stack's path, byte for byte
        single = apply_laplacian(g, f[0])
        self._close(single, ref["lap_real"](f[0]))
        assert single.tobytes() == lap[0].tobytes()
        if n == 1:
            self._close(spectral_shift(g, u, 0.7), ref["shift"](0.7, u))
            self._close(spectral_shift(g, f, -0.3), ref["shift"](-0.3, f))
        else:
            with pytest.raises(ValueError, match="1-d Cartesian"):
                spectral_shift(g, u, 0.7)
        assert f.tobytes() == keep_f and u.tobytes() == keep_u


class TestCallerOwnedBuffers:
    @pytest.mark.parametrize("n,N", [(1, 64), (1, 63), (2, 32), (2, 31), (3, 16), (3, 15)])
    def test_irfftn_in_spectrum_memory_is_numpy_irfftn(self, n, N):
        # the complex passes run in the spectrum's memory; the real pass may
        # write into a caller's buffer; both byte for byte as np.fft.irfftn
        g = GridSpec("cartesian", n, N, 3.0)
        axes = tuple(range(-n, 0))
        spec = np.fft.rfftn(np.random.default_rng(N).normal(size=(2,) + g.shape), axes=axes)
        want = np.fft.irfftn(spec, s=g.shape, axes=axes)
        got = grids._irfftn(g, spec.copy())
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        buf = np.empty(want.shape)
        assert grids._irfftn(g, spec.copy(), out=buf) is buf
        assert buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("real", [True, False])
    def test_radial_solve_into_buffer(self, n, real):
        # solve(rhs, out=buf) fills buf with solve(rhs) and leaves rhs alone
        g = GridSpec("radial", n, 96, 12.0)
        rng = np.random.default_rng(n)
        if real:
            shift, scale = np.array([1.5, 0.5, 2.0]), np.array([1.0, 2.0, 0.5])
            rhs = rng.normal(size=(3, g.N))
        else:
            c = 1j * 0.05 / np.array([1.0, 2.0, 0.5])
            shift, scale = 1.0 + c * np.array([0.5, -0.3, 0.0]), c * np.array([1.0, 2.0, 0.5])
            rhs = rng.normal(size=(3, g.N)) + 1j * rng.normal(size=(3, g.N))
        keep = rhs.tobytes()
        solve = shifted_solver(g, shift, scale)
        want = solve(rhs)
        buf = np.empty_like(want)
        assert solve(rhs, out=buf) is buf and buf.tobytes() == want.tobytes()
        assert rhs.tobytes() == keep

    def test_cartesian_solver_workspace_does_not_leak_between_calls(self):
        # an earlier result stays intact and a repeated call gives the same
        # bytes
        g = GridSpec("cartesian", 2, 32, 3.0)
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 2) + g.shape)
        solve = shifted_solver(g, np.array([1.5, 0.5]), np.array([1.0, 2.0]))
        first = solve(a)
        keep = first.tobytes()
        second = solve(b)
        assert first.tobytes() == keep and not np.shares_memory(first, second)
        assert solve(a).tobytes() == keep

    @pytest.mark.parametrize("n,N", [(2, 128), (3, 32)])
    def test_cartesian_solver_holds_only_its_multipliers(self, n, N):
        # a built solver keeps one real multiplier per component, and a solve
        # into a caller's buffer allocates one complex half spectrum, not one
        # per field of the stack
        g = GridSpec("cartesian", n, N, 3.0)
        half = grids._cartesian_half_ksq(g)  # cached before measuring
        f = np.random.default_rng(N).normal(size=(3,) + g.shape)
        buf = np.empty_like(f)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve = shifted_solver(g, np.array([1.5, 0.5, 2.0]), np.array([1.0, 2.0, 0.5]))
            held = tracemalloc.get_traced_memory()[0] - before
            solve(f, out=buf)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve(f, out=buf)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        slack = 4096  # bytes of Python objects
        assert held <= 3 * half.nbytes + slack
        assert peak <= 2 * half.nbytes + slack

    def test_lapack_module_is_cached_and_picks_d_or_z_routines(self, monkeypatch):
        flapack = grids._lapack()
        assert grids._lapack() is flapack is sys.modules["scipy.linalg._flapack"]
        for t, bands in (("d", np.ones(3)), ("z", np.ones(3, dtype=complex))):
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (bands,))
            assert gttrf is getattr(flapack, t + "gttrf")
            assert gttrs is getattr(flapack, t + "gttrs")
        picked = []

        class Recorder:
            def __getattr__(self, routine):
                picked.append(routine)
                return getattr(flapack, routine)

        monkeypatch.setattr(grids, "_lapack", Recorder)
        g = GridSpec("radial", 3, 16, 4.0)
        shifted_solver(g, [1.0], [0.5])(np.ones((1, 16)))
        shifted_solver(g, [1.0 + 0.5j], [0.1j])(np.ones((1, 16), dtype=complex))
        assert picked == ["dgttrf", "dgttrs", "zgttrf", "zgttrs"]

    def test_missing_lapack_extension_raises_one_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        monkeypatch.setattr(grids.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack from scipy>=1\.13"):
            grids._lapack.__wrapped__()

    def test_scipy_linalg_imported_after_a_radial_solve_solves_the_same(self):
        # a fresh process: the radial solve loads the extension first, then
        # scipy.linalg reuses that module and its routines give the same bits
        script = """
import sys
import numpy as np
from qnls.grids import GridSpec, radial_laplacian_banded, shifted_solver
g = GridSpec("radial", 5, 64, 8.0)
rng = np.random.default_rng(3)
shift, scale = 1.0 + 0.02j * rng.uniform(size=2), 0.01j * rng.uniform(size=2)
rhs = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
x = shifted_solver(g, shift, scale)(rhs)
flapack = sys.modules["scipy.linalg._flapack"]
assert "scipy.linalg" not in sys.modules
from scipy.linalg import _flapack, get_lapack_funcs
assert _flapack is flapack
ab, ref = radial_laplacian_banded(g), []
for s, c, b in zip(shift, scale, rhs):
    bands = (-c * ab[2, :-1], s - c * ab[1], -c * ab[0, 1:])
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), bands)
    assert gttrf is flapack.zgttrf and gttrs is flapack.zgttrs
    *lu, info = gttrf(*bands)
    assert info == 0
    ref.append(gttrs(*lu, b)[0])
assert np.array_equal(x, np.array(ref))
assert np.array_equal(shifted_solver(g, shift, scale)(rhs), x)
"""
        src = str(Path(grids.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        m = builtin_model("shg3")
        g = GridSpec("radial", 4, 64, 8.0)
        rng = np.random.default_rng(2)
        comps = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        st = FieldState(m, g, comps, 1.25)
        path = tmp_path / "state.qnls"
        write_snapshot(st, path)
        back = read_snapshot(path, m)
        assert back.grid == g
        assert back.t == 1.25
        assert np.array_equal(back.components, st.components)  # bit-exact float64

    def test_header_is_ascii_line(self, tmp_path):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 16, 2.0)
        st = FieldState(m, g, np.zeros((2, 16), dtype=complex), 0.0)
        path = tmp_path / "s.qnls"
        write_snapshot(st, path)
        first = open(path, "rb").readline().decode("ascii")
        assert first.startswith("QNLS1 kind=cartesian n=1 N=16 ")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE\n")
        with pytest.raises(ValueError):
            read_snapshot_raw(path)

    GOOD = b"QNLS1 kind=cartesian n=1 N=8 extent=2.0 l=1 t=0.0\n"

    @pytest.mark.parametrize("data,field", [
        (b"QNLS1 kind=cartesian n=1\n", "'N'"),
        (GOOD.replace(b"t=0.0", b"t=0.\xff"), "ascii"),
        (GOOD.replace(b"N=8", b"N=x"), "N='x'"),
        (GOOD.replace(b"N=8", b"N8"), "'N8'"),
        (GOOD.replace(b"l=1", b"l=0"), "l=0"),
        (GOOD.replace(b"N=8", b"N=4"), "N=4"),
        (GOOD.replace(b"\n", b" pad=" + b"x" * 1024 + b"\n"), "header longer"),
        (GOOD + b"\0" * 13, "payload"),
        # sizes far beyond the file are refused before any read
        (GOOD.replace(b"n=1 N=8", b"n=3 N=100000"), "payload"),
        (GOOD.replace(b"l=1", b"l=%d" % 10**17), "payload"),
        (GOOD.replace(b"extent=2.0", b"extent=inf"), "finite"),
    ], ids=["missing", "non-ascii", "bad-int", "no-equals", "no-components",
            "bad-grid", "long-header", "short-payload", "huge-N", "huge-l", "inf-extent"])
    def test_malformed_header(self, tmp_path, data, field):
        path = tmp_path / "bad.qnls"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_snapshot_raw(path)
        assert str(path) in str(info.value)
        assert field in str(info.value)

    def test_component_mismatch(self, tmp_path):
        m2, m3 = builtin_model("uv2"), builtin_model("shg3")
        g = GridSpec("cartesian", 1, 16, 2.0)
        st = FieldState(m2, g, np.zeros((2, 16), dtype=complex), 0.0)
        path = tmp_path / "s.qnls"
        write_snapshot(st, path)
        with pytest.raises(ValueError):
            read_snapshot(path, m3)

