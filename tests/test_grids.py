import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs, solve_banded

from qnls.grids import (Field, FieldState, GridSpec, apply_laplacian,
                        boundary_mass_fraction, grad_sq_integral, gradient_components,
                        integrate, laplacian, momentum_density_integral,
                        multiply_by_radius_sq, norm_sq, quadrature_weights,
                        radial_derivative, radial_laplacian_banded, radial_shifted_solver,
                        read_snapshot, read_snapshot_raw,
                        symmetric_decreasing_rearrangement, write_snapshot)
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
    def test_plane_wave_eigenfunction(self):
        g = GridSpec("cartesian", 1, 256, 20.0)
        x = g.axis()
        xi0 = np.pi * 7 / g.extent  # on-grid wavenumber
        f = np.exp(1j * xi0 * x)
        assert np.max(np.abs(apply_laplacian(g, f) + xi0**2 * f)) < 1e-11

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

    def test_banded_matches_matrix_free(self):
        g = GridSpec("radial", 5, 64, 8.0)
        ab = radial_laplacian_banded(g)
        rng = np.random.default_rng(1)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        dense = np.zeros((64, 64), dtype=complex)
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
        # the squared norms skip the square root and the derivative array;
        # against the plain formulas they agree to rounding
        g = GridSpec("radial", n, 301, 9.0)
        rng = np.random.default_rng(n)
        v = rng.normal(size=301).astype(dtype)
        if dtype is complex:
            v += 1j * rng.normal(size=301)
        w = quadrature_weights(g)
        grad_ref = np.sum(w * np.abs(radial_derivative(g, v)) ** 2)
        assert grad_sq_integral(g, v) == pytest.approx(grad_ref, rel=1e-14, abs=0.0)
        assert norm_sq(g, v) == pytest.approx(np.sum(w * np.abs(v) ** 2), rel=1e-14, abs=0.0)


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
        x = radial_shifted_solver(grid, shift, scale)(rhs)
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
        x = radial_shifted_solver(grid, shift, scale)(rhs)
        ref = _per_component_reference(grid, shift, scale, rhs)
        assert x.dtype == ref.dtype and x.shape == rhs.shape
        assert np.array_equal(x, ref)

    def test_singular_matrix_raises(self):
        # a zero diagonal with zero off-diagonals leaves a zero pivot
        g = GridSpec("radial", 3, 16, 4.0)
        with pytest.raises(np.linalg.LinAlgError):
            radial_shifted_solver(g, [0.0], [0.0])


class TestVarianceWeights:
    def test_radius_sq_multiply(self):
        g = GridSpec("cartesian", 1, 512, 15.0)
        x = g.axis()
        f = Field(g, np.exp(-x**2).astype(complex))
        moment = integrate(g, np.real(multiply_by_radius_sq(f).values) * np.exp(-x**2))
        assert moment == pytest.approx(np.sqrt(np.pi / 2) / 4, abs=1e-10)  # int x^2 e^{-2x^2}

    def test_zero_field(self):
        g = GridSpec("radial", 3, 64, 5.0)
        f = Field(g, np.zeros(64, dtype=complex))
        assert np.all(multiply_by_radius_sq(f).values == 0.0)


class TestMomentum:
    def test_real_field_zero(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 256, 10.0)
        x = g.axis()
        st = FieldState(m, g, np.stack([np.exp(-x**2)] * 2).astype(complex), 0.0)
        assert abs(momentum_density_integral(st, 0)) < 1e-14

    def test_plane_phase_odd_integrand(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 512, 15.0)
        x = g.axis()
        u = np.exp(1j * (np.pi * 5 / 15.0) * x) * np.exp(-x**2)
        st = FieldState(m, g, np.stack([u, u]), 0.0)
        assert abs(momentum_density_integral(st, 0)) < 1e-12

    def test_chirped_gaussian(self):
        # Im int (d/dx u) x conj(u) for u = e^{i b x^2} e^{-x^2} is 2b int x^2 e^{-2x^2}
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 1024, 15.0)
        x = g.axis()
        b = 0.7
        u = np.exp(1j * b * x**2 - x**2)
        st = FieldState(m, g, np.stack([u, u]), 0.0)
        expected = 2 * b * np.sqrt(np.pi / 2) / 4.0
        assert momentum_density_integral(st, 0) == pytest.approx(expected, abs=1e-8)

    def test_radial_chirp(self):
        m = builtin_model("uv2")
        g = GridSpec("radial", 3, 1024, 12.0)
        r = g.axis()
        b = 0.4
        u = np.exp(1j * b * r**2 - r**2)
        st = FieldState(m, g, np.stack([u, u]), 0.0)
        # Im(u' r conj(u)) = 2 b r^2 e^{-2 r^2}; 4 pi int 2b r^4 e^{-2r^2} dr
        expected = 8 * np.pi * b * (3.0 / 8.0) * np.sqrt(np.pi) * 2.0**-2.5
        # radial gradients are second-order finite differences
        assert momentum_density_integral(st, 0) == pytest.approx(expected, rel=1e-3)


class TestRearrangement:
    def test_fixed_point(self):
        g = GridSpec("radial", 3, 256, 10.0)
        f = Field(g, np.exp(-g.axis() ** 2).astype(complex))
        out = symmetric_decreasing_rearrangement(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_two_bump_cartesian_exact(self):
        g = GridSpec("cartesian", 1, 256, 10.0)
        x = g.axis()
        f = (np.exp(-((x - 3) ** 2)) + 0.7 * np.exp(-((x + 4) ** 2))).astype(complex)
        out = symmetric_decreasing_rearrangement(Field(g, f))
        assert abs(norm_sq(g, out.values) - norm_sq(g, f)) < 1e-10
        v = np.real(out.values)
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
            rearr = np.stack([symmetric_decreasing_rearrangement(Field(g, c)).values
                              for c in comps])
            st, st_r = FieldState(m, g, comps, 0.0), FieldState(m, g, rearr, 0.0)
            assert abs(fn.charge(st_r) - fn.charge(st)) <= 1e-10 * fn.charge(st)
            assert fn.kinetic(st_r) <= fn.kinetic(st) + 1e-10
            assert fn.interaction(st_r) >= fn.interaction(st) - 1e-10

    def test_radial_rebinning(self):
        g = GridSpec("radial", 3, 512, 10.0)
        r = g.axis()
        f = (np.exp(-((r - 3) ** 2)) + 0.5 * np.exp(-(r**2))).astype(complex)
        out = symmetric_decreasing_rearrangement(Field(g, f))
        v = np.real(out.values)
        assert np.all(np.diff(v) <= 1e-12)
        # weighted L1 is conserved exactly by the quantile averaging
        assert integrate(g, v) == pytest.approx(integrate(g, np.real(f)), rel=1e-12)
        # L2 within quadrature resolution
        assert norm_sq(g, out.values) == pytest.approx(norm_sq(g, f), rel=1e-3)

    def test_negative_rejected(self):
        g = GridSpec("cartesian", 1, 64, 5.0)
        with pytest.raises(ValueError):
            symmetric_decreasing_rearrangement(Field(g, -np.ones(64, dtype=complex)))

    def test_cartesian_2d_unsupported(self):
        g = GridSpec("cartesian", 2, 16, 5.0)
        with pytest.raises(ValueError):
            symmetric_decreasing_rearrangement(Field(g, np.ones(g.shape, dtype=complex)))


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
    ], ids=["missing", "non-ascii", "bad-int", "no-equals", "no-components",
            "bad-grid", "long-header", "short-payload"])
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


class TestLaplacianFieldWrapper:
    def test_field_api(self):
        g = GridSpec("cartesian", 1, 128, 10.0)
        xi0 = np.pi * 2 / g.extent
        f = Field(g, np.exp(1j * xi0 * g.axis()))
        out = laplacian(f)
        assert np.max(np.abs(out.values + xi0**2 * f.values)) < 1e-12

    def test_gradient_components_count(self):
        g = GridSpec("cartesian", 2, 16, 3.0)
        grads = gradient_components(g, np.ones(g.shape, dtype=complex))
        assert len(grads) == 2
