from dataclasses import replace

import numpy as np
import pytest

from qnls import functionals as fn
from qnls import grids
from qnls.grids import FieldState, GridSpec
from qnls.groundstate import (ConvergenceError, _linear_solver, amplified_initializer,
                              constrained_minimize, dilated_initializer,
                              elliptic_residual, instability_initializer, lambda_star,
                              mass_preserving_dilation, modulated_distance,
                              normalize_KQ1, peak_aligned_linf_error,
                              petviashvili_solve, pohozaev_check,
                              read_groundstate_archive, scale_to_solution,
                              spectral_shift, write_groundstate_archive, xi1_of)
from qnls.nonlinearity import builtin_model


@pytest.fixture(scope="module")
def uv2_exact():
    """kappa=1 two-wave system on a 1-d grid, against the closed-form pair."""
    m = builtin_model("uv2", kappa=1.0)
    g = GridSpec("cartesian", 1, 512, 25.0)
    result = petviashvili_solve(m, 1.0, g)
    x = g.axis()
    phi = 1.5 / np.cosh(x / 2.0) ** 2
    exact = np.stack([phi / np.sqrt(2.0), phi / 2.0])
    return result, exact


@pytest.fixture(scope="module")
def gs_n3():
    return petviashvili_solve(builtin_model("shg3"), 1.0,
                              GridSpec("radial", 3, 768, 14.0))


@pytest.fixture(scope="module")
def gs_n5():
    return petviashvili_solve(builtin_model("shg3"), 1.0,
                              GridSpec("radial", 5, 1024, 12.0))


class TestPetviashvili:
    def test_exact_pair(self, uv2_exact):
        result, exact = uv2_exact
        assert result.residual < 1e-8
        assert np.max(np.abs(result.profile - exact)) < 1e-6
        assert result.iterations < 1000

    def test_structural_identities_n1_cartesian(self, uv2_exact):
        result, _ = uv2_exact
        dev = pohozaev_check(result)
        # spectral grid: the identities hold to near rounding
        assert max(dev) < 1e-8
        assert result.K / result.I == pytest.approx(1.0, abs=1e-8)
        assert result.Qcal / result.I == pytest.approx(5.0, abs=1e-7)
        assert result.P / result.I == pytest.approx(2.0, abs=1e-8)

    def test_radial_identities(self, gs_n3):
        dev = pohozaev_check(gs_n3)
        assert max(dev) < 1e-3
        assert gs_n3.K / gs_n3.I == pytest.approx(3.0, rel=1e-3)
        assert gs_n3.Qcal / gs_n3.I == pytest.approx(3.0, rel=2e-3)

    def test_profile_positive_interior(self, gs_n3):
        interior = gs_n3.profile[:, : int(0.5 * gs_n3.grid.N)]
        assert np.all(interior > 0.0)

    def test_null_direction_restart(self):
        # an initial guess with a dead second component kills the pairing;
        # the solver must recover through its tilted restarts
        m = builtin_model("uv2", kappa=1.0)
        g = GridSpec("cartesian", 1, 256, 25.0)
        init = np.stack([np.exp(-g.axis() ** 2), np.zeros(g.N)])
        result = petviashvili_solve(m, 1.0, g, init=init)
        assert result.residual < 1e-8
        assert result.restarts == 1

    def test_zero_init_rejected(self):
        m = builtin_model("uv2", kappa=1.0)
        g = GridSpec("cartesian", 1, 256, 25.0)
        with pytest.raises(ValueError):
            petviashvili_solve(m, 1.0, g, init=np.zeros((2, 256)))

    def test_linear_model_diverges(self):
        from qnls.nonlinearity import CoefficientSet, ModelSpec, TrilinearPotential
        coeffs = CoefficientSet(alpha=np.ones(1), gamma=np.ones(1), beta=np.zeros(1))
        m = ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=1, terms=()))
        with pytest.raises(ConvergenceError):
            petviashvili_solve(m, 1.0, GridSpec("cartesian", 1, 64, 10.0))

    def test_iterations_count_the_iterations_run(self, monkeypatch):
        # this n = 5 solve stops on the machine-converged branch (its residual
        # never reaches tol); each iteration evaluates f_k once, plus the two
        # evaluations of the initial rescale
        from qnls.nonlinearity import ModelSpec
        calls = []
        eval_fk = ModelSpec.eval_fk

        def counted(self, *args, **kwargs):
            calls.append(1)
            return eval_fk(self, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "eval_fk", counted)
        result = petviashvili_solve(builtin_model("shg3"), 1.0,
                                    GridSpec("radial", 5, 1024, 12.0))
        assert result.residual >= 1e-10
        assert len(calls) == result.iterations + 2

    def test_stabilization_factor_converged(self, gs_n3):
        # at the fixed point the stabilization factor is 1: re-apply one sweep
        state = gs_n3
        b = state.model.coeffs.b(1.0)
        res = elliptic_residual(state.model, state.grid, state.profile, b)
        assert res == pytest.approx(state.residual, rel=1e-6)


class TestResolvent:
    @pytest.mark.parametrize("n,N", [(1, 64), (1, 63), (2, 32), (2, 31), (3, 16), (3, 15)])
    @pytest.mark.parametrize("name", ["shg3", "uv2"])
    def test_inverts_the_operator(self, name, n, N):
        m = builtin_model(name)
        g = GridSpec("cartesian", n, N, 3.0)
        b = m.coeffs.b(1.0)
        f = np.random.default_rng(N).normal(size=(m.l,) + g.shape)
        u = _linear_solver(m, g, b)(f)
        assert u.dtype == np.float64 and u.shape == f.shape
        shape = (m.l,) + (1,) * n
        back = (-m.coeffs.gamma.reshape(shape) * grids.apply_laplacian(g, u)
                + b.reshape(shape) * u)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestPohozaev:
    def test_n6_rejected(self, gs_n3):
        with pytest.raises(ValueError):
            pohozaev_check(gs_n3, n=6)

    def test_nonpositive_action_rejected(self):
        from qnls.groundstate import _pohozaev_deviations
        with pytest.raises(ValueError):
            _pohozaev_deviations(1.0, 1.0, 1.0, -0.5, 3)


class TestNormalizations:
    def test_normalize_unit_values(self, gs_n3):
        st = normalize_KQ1(gs_n3.state, 1.0)
        assert fn.kinetic(st) == pytest.approx(1.0, abs=1e-10)
        assert fn.weighted_mass(st, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_normalize_random_field(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 256, 15.0)
        rng = np.random.default_rng(8)
        comps = np.stack([rng.uniform(0.5, 1.5) * np.exp(-g.axis() ** 2)
                          for _ in range(2)]).astype(complex)
        st = FieldState(m, g, comps, 0.0)
        out = normalize_KQ1(st, 1.0)
        assert fn.kinetic(out) == pytest.approx(1.0, abs=1e-12)
        assert fn.weighted_mass(out, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert fn.weinstein_quotient(out, 1.0) == pytest.approx(
            fn.weinstein_quotient(st, 1.0), rel=1e-12)

    def test_normalize_zero_rejected(self):
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 64, 5.0)
        st = FieldState(m, g, np.zeros((2, 64), dtype=complex), 0.0)
        with pytest.raises(ValueError):
            normalize_KQ1(st, 1.0)

    def test_idempotent_on_normalized(self, gs_n3):
        st = normalize_KQ1(gs_n3.state, 1.0)
        again = normalize_KQ1(st, 1.0)
        assert again.grid.extent == pytest.approx(st.grid.extent, rel=1e-12)
        assert np.allclose(again.components, st.components)

    def test_scale_to_solution_closure_spectral(self, uv2_exact):
        # on the spectral grid the structural identities hold to rounding, so
        # the normalize -> rescale loop lands back on the stationary branch
        result, _ = uv2_exact
        normalized = normalize_KQ1(result.state, 1.0)
        rescaled, residual = scale_to_solution(normalized, xi1_of(result), 1.0)
        assert residual < 1e-5

    def test_scale_to_solution_closure_radial(self, gs_n3):
        normalized = normalize_KQ1(gs_n3.state, 1.0)
        xi1 = xi1_of(gs_n3)
        rescaled, residual = scale_to_solution(normalized, xi1, 1.0)
        # radial identities hold to O(h^2); the loop residual inherits that
        assert residual < 50 * max(gs_n3.pohozaev_dev)
        n = gs_n3.grid.n
        lam0 = np.sqrt((6.0 - n) / n)
        assert rescaled.grid.extent == pytest.approx(
            normalized.grid.extent * lam0, rel=1e-12)

    def test_lambda0_formula_n5(self, gs_n5):
        normalized = normalize_KQ1(gs_n5.state, 1.0)
        rescaled, _ = scale_to_solution(normalized, xi1_of(gs_n5), 1.0)
        assert rescaled.grid.extent / normalized.grid.extent \
            == pytest.approx(np.sqrt(1.0 / 5.0), rel=1e-12)

    def test_xi1_matches_quotient(self, gs_n3, gs_n5):
        assert xi1_of(gs_n3) == pytest.approx(gs_n3.J, rel=1e-3)
        assert xi1_of(gs_n5) == pytest.approx(gs_n5.J, rel=1e-3)


class TestDilations:
    def test_lambda_star_on_profile(self, gs_n5):
        assert lambda_star(gs_n5.state) == pytest.approx(1.0, abs=1e-3)

    def test_lambda_star_closed_form(self, gs_n5):
        st = FieldState(gs_n5.model, gs_n5.grid,
                        (gs_n5.profile * np.exp(-0.1 * gs_n5.grid.axis() ** 2)
                         ).astype(complex), 0.0)
        ls = lambda_star(st)
        K, P = fn.kinetic(st), fn.interaction(st)
        assert ls == pytest.approx((2 * K / (5 * P)) ** 2, rel=1e-12)
        # defining property: the dilation lands on the zero set exactly
        assert abs(fn.virial_functional(mass_preserving_dilation(st, ls))) \
            < 1e-10 * fn.kinetic(st)

    def test_lambda_star_guards(self, gs_n3, gs_n5):
        with pytest.raises(ValueError):
            lambda_star(gs_n3.state)  # wrong dimension
        zero = FieldState(gs_n5.model, gs_n5.grid,
                          np.zeros_like(gs_n5.state.components), 0.0)
        with pytest.raises(ValueError):
            lambda_star(zero)  # P = 0

    def test_mass_preserving(self, gs_n5):
        st = mass_preserving_dilation(gs_n5.state, 1.7)
        assert fn.charge(st) == pytest.approx(gs_n5.Q, rel=1e-12)

    def test_instability_initializers(self, gs_n5):
        d = dilated_initializer(gs_n5.state, 1.5)
        assert fn.virial_functional(d) < 0.0
        with pytest.raises(ValueError):
            dilated_initializer(gs_n5.state, 1.0)
        assert instability_initializer(gs_n5.state, 1.5).grid.extent \
            == pytest.approx(gs_n5.grid.extent / 1.5)
        # continuity: the datum approaches the profile as lam -> 1+
        near = dilated_initializer(gs_n5.state, 1.0 + 1e-6)
        rel = np.max(np.abs(near.components - gs_n5.state.components)) \
            / np.max(np.abs(gs_n5.state.components))
        assert rel < 1e-4

    def test_amplified_initializer_n4(self):
        gs4 = petviashvili_solve(builtin_model("shg3"), 1.0,
                                 GridSpec("radial", 4, 512, 14.0))
        data, predicted = amplified_initializer(gs4.state, 0.1)
        assert predicted < 0.0
        # E((1+e)psi) - prediction == (1+e)^2 (K - 2P): pure discretization
        gap = fn.energy(data) - predicted
        assert abs(gap) == pytest.approx(1.1**2 * abs(gs4.K - 2 * gs4.P), rel=1e-9)
        assert fn.energy(data) < 0.0
        with pytest.raises(ValueError):
            amplified_initializer(gs4.state, -0.1)
        with pytest.raises(ValueError):
            instability_initializer(gs4.state, 0.0)


@pytest.fixture(scope="module")
def cmin_setup():
    m = builtin_model("uv2")
    g = GridSpec("cartesian", 1, 512, 30.0)
    gs = petviashvili_solve(m, 1.0, g)
    return m, g, gs


class TestConstrainedMinimization:
    def test_negative_minimum(self, cmin_setup):
        m, g, _ = cmin_setup
        r = constrained_minimize(m, 1.0, g)
        assert r.I_nu < 0.0
        assert r.residual < 1e-6

    def test_charge_scaling_law(self, cmin_setup):
        m, g, _ = cmin_setup
        r1 = constrained_minimize(m, 1.0, g)
        r2 = constrained_minimize(m, 2.0, g)
        assert r2.I_nu / r1.I_nu == pytest.approx(2.0 ** (5.0 / 3.0), rel=1e-3)

    def test_matches_stationary_branch(self, cmin_setup):
        m, g, gs = cmin_setup
        r = constrained_minimize(m, gs.Q, g)
        assert r.lagrange_theta == pytest.approx(-1.0, abs=1e-6)
        assert r.lagrange_omega == pytest.approx(1.0, abs=1e-6)
        assert modulated_distance(r.minimizer, gs.state, relative=False) < 1e-5
        assert r.I_nu == pytest.approx(gs.K - 2 * gs.P, rel=1e-9)

    def test_charge_constraint_enforced(self, cmin_setup):
        m, g, _ = cmin_setup
        r = constrained_minimize(m, 3.21, g)
        assert fn.charge(r.minimizer) == pytest.approx(3.21, rel=1e-12)

    def test_dimension_guard(self, cmin_setup):
        m, _, _ = cmin_setup
        with pytest.raises(ValueError):
            constrained_minimize(m, 1.0, GridSpec("radial", 4, 64, 8.0))
        with pytest.raises(ValueError):
            constrained_minimize(m, -1.0, GridSpec("cartesian", 1, 64, 8.0))


class TestSymmetryModding:
    def test_phase_and_shift_recovered(self, uv2_exact):
        result, _ = uv2_exact
        g = result.grid
        sigma = result.model.coeffs.sigma
        theta, shift = 0.83, 0.4  # deliberately off-grid shift
        comps = np.stack([
            np.exp(1j * sigma[k] * theta)
            * spectral_shift(g, result.profile[k].astype(complex), shift)
            for k in range(2)])
        moved = FieldState(result.model, g, comps, 0.0)
        assert modulated_distance(moved, result.state) < 1e-5

    def test_relative_normalization(self, uv2_exact):
        result, _ = uv2_exact
        doubled = FieldState(result.model, result.grid,
                             2.0 * result.state.components, 0.0)
        # distance of 2 psi to psi modulo symmetries is |1| * norm, i.e. 1 relative
        assert modulated_distance(doubled, result.state) == pytest.approx(1.0, rel=1e-6)

    def test_radial_phase_only(self, gs_n3):
        sigma = gs_n3.model.coeffs.sigma
        comps = np.exp(1j * sigma * 1.1)[:, None] * gs_n3.profile
        st = FieldState(gs_n3.model, gs_n3.grid, comps, 0.0)
        assert modulated_distance(st, gs_n3.state) < 1e-6

    def test_grid_mismatch(self, gs_n3, gs_n5):
        with pytest.raises(ValueError):
            modulated_distance(gs_n3.state, gs_n5.state)

    def test_peak_alignment(self, uv2_exact):
        result, _ = uv2_exact
        g = result.grid
        shifted = np.stack([spectral_shift(g, c, 0.7) for c in result.state.components])
        st = FieldState(result.model, g, shifted, 0.0)
        assert peak_aligned_linf_error(st, result.state) < 1e-4


class TestArchive:
    def test_round_trip(self, gs_n3, tmp_path):
        path = tmp_path / "gs.qnls"
        write_groundstate_archive(gs_n3, path)
        back = read_groundstate_archive(path)
        assert back.grid == gs_n3.grid
        assert back.omega == gs_n3.omega
        assert back.K == gs_n3.K  # repr round-trip, bit exact
        assert back.pohozaev_dev == gs_n3.pohozaev_dev
        assert np.array_equal(back.profile, gs_n3.profile)
        z = np.array([0.5, 0.25, 0.1], dtype=complex)
        assert np.allclose(back.model.eval_fk(z), gs_n3.model.eval_fk(z))

    def test_restarts_round_trip(self, gs_n3, tmp_path):
        path = tmp_path / "gs.qnls"
        write_groundstate_archive(replace(gs_n3, restarts=2), path)
        assert read_groundstate_archive(path).restarts == 2
        # an archive written before the restarts line existed reads as 0
        path.write_bytes(path.read_bytes().replace(b"restarts=2\n", b""))
        assert read_groundstate_archive(path).restarts == 0

    @pytest.mark.parametrize("line", [b"J=", b"iterations=", b"pohozaev_dev="])
    def test_missing_trailer_field(self, gs_n3, tmp_path, line):
        path = tmp_path / "gs.qnls"
        write_groundstate_archive(gs_n3, path)
        data = path.read_bytes()
        start = data.index(b"\n" + line) + 1
        path.write_bytes(data[:start] + data[data.index(b"\n", start) + 1:])
        with pytest.raises(ValueError) as info:
            read_groundstate_archive(path)
        assert str(path) in str(info.value)
        assert repr(line[:-1].decode()) in str(info.value)


class TestQuotientMinimality:
    def test_local_minimum_under_perturbation(self, uv2_exact):
        # the converged profile minimizes the quotient: 100 random small
        # perturbations never lower it beyond rounding
        result, _ = uv2_exact
        g = result.grid
        x = g.axis()
        J0 = result.J
        rng = np.random.default_rng(17)
        from qnls import functionals as fn
        for _ in range(100):
            delta = np.stack([
                sum(rng.normal(0, 1e-3) * np.exp(-((x - rng.uniform(-4, 4)) ** 2)
                                                 / rng.uniform(0.5, 2.0))
                    for _ in range(2)) for _ in range(2)]).astype(complex)
            st = FieldState(result.model, g, result.profile + delta, 0.0)
            if fn.interaction(st) <= 0:
                continue
            assert fn.weinstein_quotient(st, 1.0) >= J0 - 1e-8

    def test_rearrangement_never_increases_quotient(self):
        # super-modular couplings: simultaneous rearrangement preserves the
        # weighted masses, lowers the Dirichlet sum, and raises the
        # interaction, so the quotient cannot go up
        from qnls import functionals as fn
        from qnls.grids import Field, symmetric_decreasing_rearrangement
        m = builtin_model("uv2")
        g = GridSpec("cartesian", 1, 256, 12.0)
        x = g.axis()
        rng = np.random.default_rng(23)
        for _ in range(30):
            comps = np.stack([
                sum(rng.uniform(0.2, 1.0) * np.exp(-((x - rng.uniform(-5, 5)) ** 2)
                                                   / rng.uniform(0.5, 2.0))
                    for _ in range(3)) for _ in range(2)]).astype(complex)
            st = FieldState(m, g, comps, 0.0)
            rearr = np.stack([symmetric_decreasing_rearrangement(Field(g, c)).values
                              for c in comps])
            st_r = FieldState(m, g, rearr, 0.0)
            assert fn.weinstein_quotient(st_r, 1.0) \
                <= fn.weinstein_quotient(st, 1.0) + 1e-10


class TestDilationDerivativeIdentity:
    def test_action_slope_equals_functional(self, gs_n5):
        # d/dlam I(phi^lam) = T(phi^lam)/lam, checked by central differences
        from qnls import functionals as fn
        dl = 1e-4
        for lam in (0.8, 1.2):
            Ip = fn.action(mass_preserving_dilation(gs_n5.state, lam + dl), 1.0)
            Im_ = fn.action(mass_preserving_dilation(gs_n5.state, lam - dl), 1.0)
            slope = (Ip - Im_) / (2 * dl)
            tval = fn.virial_functional(mass_preserving_dilation(gs_n5.state, lam)) / lam
            assert slope == pytest.approx(tval, rel=1e-6)


class TestInstabilityData:
    def test_bundle(self, gs_n5):
        from qnls.groundstate import instability_data
        data = instability_data(gs_n5.state, lambdas=(1.5, 2.0))
        assert data.lambda_star == pytest.approx(1.0, abs=1e-3)
        assert data.m == pytest.approx(gs_n5.I, rel=1e-12)
        for lam, tval in zip(data.lambdas, data.T_at_lambda):
            assert tval == pytest.approx(lam**2 * (1 - np.sqrt(lam)) * gs_n5.K, rel=5e-3)
        assert all(t < 0 for t in data.T_at_lambda)
