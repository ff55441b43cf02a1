import numpy as np
import pytest

from qnls import functionals as fn
from qnls.evolve import (DiagnosticsSeries, EvolveConfig, Stepper, pde_residual,
                         pseudo_conformal_solution, pseudo_conformal_with_rate,
                         run_with_monitors, standing_wave, standing_wave_with_rate,
                         virial_check)
from qnls.grids import FieldState, GridSpec, apply_laplacian, norm_sq
from qnls.groundstate import elliptic_residual, petviashvili_solve
from qnls.nonlinearity import (CoefficientSet, ModelSpec, TrilinearPotential,
                               builtin_model)


def linear_model(alpha=2.0, gamma=1.0, beta=0.5):
    coeffs = CoefficientSet(alpha=np.array([alpha]), gamma=np.array([gamma]),
                            beta=np.array([beta]))
    return ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=1, terms=()))


@pytest.fixture(scope="module")
def gs_shg3_cart():
    return petviashvili_solve(builtin_model("shg3"), 1.0,
                              GridSpec("cartesian", 1, 256, 25.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolveConfig(dt=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            EvolveConfig(dt=1e-3, t_end=1.0, adaptive=True, dt_min=1e-2)
        with pytest.raises(ValueError):
            EvolveConfig(dt=1e-3, t_end=1.0, sample_every=0)

    def test_series_strictly_increasing(self):
        s = fn.FunctionalSnapshot(0.0, 1, 1, 1, 0, 0, 0, 0, (1.0,))
        d = DiagnosticsSeries([s])
        with pytest.raises(ValueError):
            d.append(s)


class TestLinearEvolution:
    def test_free_gaussian_closed_form(self):
        # i a u_t + g u_xx - b u = 0 spreads a Gaussian self-similarly
        m = linear_model()
        g = GridSpec("cartesian", 1, 256, 20.0)
        x = g.axis()
        st = FieldState(m, g, np.exp(-x**2)[None, :].astype(complex), 0.0)
        out = run_with_monitors(st, EvolveConfig(dt=0.01, t_end=1.0), with_variance=False)
        z = 1 + 4j * (1.0 / 2.0) * 1.0
        exact = np.exp(-x**2 / z) / np.sqrt(z) * np.exp(-1j * 0.5 / 2.0 * 1.0)
        assert np.max(np.abs(out.final.components[0] - exact)) < 1e-10
        # the Fourier multiplier is unitary: charge is conserved to rounding
        assert out.diagnostics.max_relative_drift("Q") < 1e-13
        assert out.diagnostics.max_relative_drift("E") < 1e-13

    def test_free_variance_quadratic_in_time(self):
        # with F = 0 the variance matches its own second-order identity exactly
        m = linear_model(alpha=1.0, gamma=1.0, beta=0.0)
        g = GridSpec("cartesian", 1, 512, 30.0)
        x = g.axis()
        st = FieldState(m, g, np.exp(-x**2)[None, :].astype(complex), 0.0)
        E0 = fn.energy(st)
        out = run_with_monitors(st, EvolveConfig(dt=5e-3, t_end=1.0, sample_every=5))
        assert virial_check(out, E0) < 1e-3

    def test_radial_eigenmode_decay_order2(self):
        # Crank-Nicolson phase error against the exact propagator of one
        # discrete eigenmode falls at second order in dt
        m = linear_model(alpha=1.0, gamma=1.0, beta=0.0)
        g = GridSpec("radial", 3, 64, 6.0)
        from qnls.grids import radial_laplacian_banded
        ab = radial_laplacian_banded(g)
        dense = np.zeros((64, 64))
        for i in range(64):
            dense[i, i] = ab[1, i]
            if i + 1 < 64:
                dense[i, i + 1] = ab[0, i + 1]
            if i > 0:
                dense[i, i - 1] = ab[2, i - 1]
        w, v = np.linalg.eig(dense)
        k = np.argsort(-w.real)[3]  # a moderately oscillatory mode
        mode = v[:, k].astype(complex)
        stepper = Stepper(m, g)
        errs = {}
        for dt in (4e-2, 2e-2):
            amp = stepper.linear_step(mode[None, :], dt)[0]
            exact = np.exp(1j * dt * w[k]) * mode
            errs[dt] = np.max(np.abs(amp - exact))
        assert errs[4e-2] / errs[2e-2] == pytest.approx(8.0, rel=0.3)  # local order 3

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_radial_update_equals_explicit_right_hand_side(self, dim):
        # u' = 2 M^{-1} u - u against M^{-1}((1 - c beta) u + c gamma A_h u),
        # M = (1 + c beta) I - c gamma A_h, c = i dt/(2 alpha), by a dense solve
        m = builtin_model("shg3", beta=(0.5, 1.0, 0.25))
        g = GridSpec("radial", dim, 128, 10.0)
        rng = np.random.default_rng(dim)
        u = rng.normal(size=(3, 128)) + 1j * rng.normal(size=(3, 128))
        dt = 1e-3
        a, gam, b = m.coeffs.alpha, m.coeffs.gamma, m.coeffs.beta
        lap = np.stack([apply_laplacian(g, np.eye(128)[:, j]) for j in range(128)], axis=1)
        ref = []
        for k in range(3):
            c = 1j * dt / (2.0 * a[k])
            rhs = (1 - c * b[k]) * u[k] + c * gam[k] * (lap @ u[k])
            ref.append(np.linalg.solve((1 + c * b[k]) * np.eye(128) - c * gam[k] * lap, rhs))
        ref = np.array(ref)
        out = Stepper(m, g).linear_step(u, dt)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestNonlinearSubstep:
    def test_pointwise_density_invariance_order(self):
        # the coupled quadratic ODE preserves sum (a^2/g)|u|^2 pointwise; RK4
        # breaks it only at fifth order per substep
        m = builtin_model("shg3")
        g = GridSpec("cartesian", 1, 64, 5.0)
        rng = np.random.default_rng(4)
        comps = (rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64)))
        stepper = Stepper(m, g)
        w = (m.coeffs.alpha**2 / m.coeffs.gamma)[:, None]
        dens0 = np.sum(w * np.abs(comps) ** 2, axis=0)
        drifts = {}
        for dt in (0.1, 0.05):
            out = stepper.nonlinear_half_step(comps, dt)
            dens = np.sum(w * np.abs(out) ** 2, axis=0)
            drifts[dt] = np.max(np.abs(dens - dens0))
        assert drifts[0.1] / drifts[0.05] == pytest.approx(32.0, rel=0.4)
        assert drifts[0.05] < 1e-6

    @pytest.mark.parametrize("kind,dim,points", [("cartesian", 2, 16), ("radial", 5, 64)])
    def test_substeps_leave_input_alone(self, kind, dim, points):
        # the adaptive loop retries from the same input after a rejected
        # step, and callers keep every returned array
        m = builtin_model("shg3")
        g = GridSpec(kind, dim, points, 6.0)
        rng = np.random.default_rng(5)
        comps = rng.normal(size=(3,) + g.shape) + 1j * rng.normal(size=(3,) + g.shape)
        keep = comps.copy()
        stepper = Stepper(m, g)
        for substep in (stepper.step, stepper.nonlinear_half_step):
            first = substep(comps, 1e-2)
            first_copy = first.copy()
            second = substep(comps, 1e-2)
            assert np.array_equal(comps, keep)
            assert not np.shares_memory(first, comps)
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, first_copy)
            assert np.array_equal(first, second)


class TestStandingWave:
    def test_solver_residual_is_profile_residual(self, gs_shg3_cart):
        radial = petviashvili_solve(builtin_model("cascade3"), 1.0,
                                    GridSpec("radial", 3, 128, 12.0))
        for gs in (gs_shg3_cart, radial):
            b = gs.model.coeffs.b(gs.omega)
            assert gs.residual == elliptic_residual(gs.model, gs.grid, gs.profile, b)

    def test_t0_identity(self, gs_shg3_cart):
        st = standing_wave(gs_shg3_cart.state, 1.0, 0.0)
        assert np.array_equal(st.components, gs_shg3_cart.state.components)

    def test_moduli_invariants(self, gs_shg3_cart):
        st = standing_wave(gs_shg3_cart.state, 1.0, 0.7)
        assert fn.charge(st) == pytest.approx(gs_shg3_cart.Q, rel=1e-14)
        assert fn.energy(st) == pytest.approx(
            fn.energy(gs_shg3_cart.state), rel=1e-12)

    def test_propagation_second_order(self, gs_shg3_cart):
        gs = gs_shg3_cart
        errs = {}
        for dt in (2e-3, 1e-3):
            out = run_with_monitors(gs.state, EvolveConfig(dt=dt, t_end=0.5,
                                                           sample_every=10**9),
                                    with_variance=False)
            ref = standing_wave(gs.state, 1.0, out.final.t)
            errs[dt] = np.sqrt(sum(norm_sq(gs.grid, out.final.components[k]
                                           - ref.components[k]) for k in range(3)))
        assert errs[2e-3] / errs[1e-3] == pytest.approx(4.0, rel=0.3)
        assert errs[1e-3] < 1e-5

    def test_radial_propagation(self):
        gs = petviashvili_solve(builtin_model("shg3"), 1.0,
                                GridSpec("radial", 3, 256, 14.0))
        out = run_with_monitors(gs.state,
                                EvolveConfig(dt=2e-4, t_end=0.2, sample_every=10**9),
                                with_variance=False)
        ref = standing_wave(gs.state, 1.0, out.final.t)
        err = np.sqrt(sum(norm_sq(gs.grid, out.final.components[k] - ref.components[k])
                          for k in range(3)))
        assert err < 1e-4
        assert out.diagnostics.max_relative_drift("Q") < 1e-7

    def test_zero_data_stays_zero(self):
        m = builtin_model("shg3")
        g = GridSpec("radial", 5, 64, 8.0)
        st = FieldState(m, g, np.zeros((3, 64), dtype=complex), 0.0)
        out = run_with_monitors(st, EvolveConfig(dt=1e-2, t_end=0.1), with_variance=False)
        assert np.all(out.final.components == 0.0)
        assert out.status == "completed"


class TestResiduals:
    def test_zero_state(self):
        m = builtin_model("shg3")
        g = GridSpec("radial", 4, 64, 8.0)
        st = FieldState(m, g, np.zeros((3, 64), dtype=complex), 0.0)
        assert np.all(pde_residual(st, np.zeros((3, 64), dtype=complex)) == 0.0)

    def test_standing_wave_residual_h2(self):
        # the profile solved on a fine radial mesh restricts exactly to the
        # nested coarser meshes; the discrete residual there falls like h^2
        m = builtin_model("shg3")
        fine = petviashvili_solve(m, 1.0, GridSpec("radial", 3, 2048, 14.0))
        res = {}
        for stride in (8, 4):
            g = GridSpec("radial", 3, 2048 // stride, 14.0)
            prof = FieldState(m, g, fine.profile[:, ::stride].astype(complex), 0.0)
            st, rate = standing_wave_with_rate(prof, 1.0, 0.4)
            res[stride] = float(np.max(pde_residual(st, rate)))
        assert res[8] / res[4] == pytest.approx(4.0, rel=0.3)

    def test_exact_pair_residual_h2(self):
        # closed-form stationary pair of the kappa=1 two-wave system
        m = builtin_model("uv2", kappa=1.0)
        res = {}
        for N in (256, 512):
            g = GridSpec("radial", 1, N, 25.0)
            r = g.axis()
            phi = 1.5 / np.cosh(r / 2.0) ** 2
            psi = np.stack([phi / np.sqrt(2.0), phi / 2.0])
            from qnls.groundstate import elliptic_residual
            res[N] = elliptic_residual(m, g, psi, m.coeffs.b(1.0))
        assert res[256] / res[512] == pytest.approx(4.0, rel=0.2)


@pytest.fixture(scope="module")
def gs4():
    return petviashvili_solve(builtin_model("shg3"), 1.0,
                              GridSpec("radial", 4, 512, 14.0))


class TestPseudoConformal:
    def test_initial_datum_form(self, gs4):
        T = 1e-3
        v0 = pseudo_conformal_solution(gs4.state, T, 0.0)
        sigma = gs4.model.coeffs.sigma
        rho = gs4.grid.axis()
        r = T * rho
        expected = (np.exp(-1j * sigma[:, None] * r[None, :] ** 2 / (4 * T)) / T**2
                    * gs4.profile)
        assert np.allclose(v0.components, expected)
        assert v0.grid.extent == pytest.approx(T * gs4.grid.extent)

    def test_charge_exactly_constant(self, gs4):
        T = 1e-4
        Qs = [fn.charge(pseudo_conformal_solution(gs4.state, T, f * T))
              for f in (0.0, 0.3, 0.6, 0.9)]
        assert max(abs(q - Qs[0]) for q in Qs) / Qs[0] < 1e-12
        assert Qs[0] == pytest.approx(gs4.Q, rel=1e-12)

    def test_kinetic_blowup_rate(self, gs4):
        T = 1e-4
        Ks = [fn.kinetic(pseudo_conformal_solution(gs4.state, T, f * T)) * (T - f * T) ** 2
              for f in (0.0, 0.5, 0.9)]
        assert max(abs(k - Ks[0]) for k in Ks) / Ks[0] < 1e-6

    def test_residual_second_order(self):
        m = builtin_model("shg3")
        T = 1e-4
        res = {}
        for N in (256, 512):
            gs = petviashvili_solve(m, 1.0, GridSpec("radial", 4, N, 14.0))
            st, rate = pseudo_conformal_with_rate(gs.state, T, T / 2)
            res[N] = float(np.max(pde_residual(st, rate)))
        assert res[256] / res[512] == pytest.approx(4.0, rel=0.4)

    def test_domain_guards(self, gs4):
        with pytest.raises(ValueError):
            pseudo_conformal_solution(gs4.state, 1.0, 1.0)  # t = T
        m = builtin_model("shg3", beta=(1.0, 1.0, 1.0))
        g = GridSpec("radial", 4, 64, 8.0)
        st = FieldState(m, g, np.zeros((3, 64), dtype=complex), 0.0)
        with pytest.raises(ValueError):
            pseudo_conformal_solution(st, 1.0, 0.0)  # beta != 0
        gs3 = FieldState(gs4.model, GridSpec("radial", 3, 64, 8.0),
                         np.zeros((3, 64), dtype=complex), 0.0)
        with pytest.raises(ValueError):
            pseudo_conformal_solution(gs3, 1.0, 0.0)  # wrong dimension


class TestMonitors:
    def test_blowup_flag_on_threshold(self, gs_shg3_cart):
        # force detection by an artificially low sup-norm cap
        cfg = EvolveConfig(dt=1e-3, t_end=0.1, sample_every=5,
                           blowup_linf=0.5 * float(max(gs_shg3_cart.state.linf())))
        out = run_with_monitors(gs_shg3_cart.state, cfg, with_variance=False)
        assert out.status == "blown_up"
        assert out.t_detect is not None

    def test_virial_check_needs_samples(self, gs_shg3_cart):
        cfg = EvolveConfig(dt=1e-2, t_end=0.02, sample_every=100)
        out = run_with_monitors(gs_shg3_cart.state, cfg)
        with pytest.raises(ValueError):
            virial_check(out, 0.0)

    def test_diagnostics_columns(self, gs_shg3_cart):
        cfg = EvolveConfig(dt=1e-2, t_end=0.1, sample_every=2)
        out = run_with_monitors(gs_shg3_cart.state, cfg, with_variance=False)
        t = out.diagnostics.column("t")
        assert np.all(np.diff(t) > 0)
        assert out.status == "completed"
        assert len(out.diagnostics) >= 3

    def test_monitor_and_rejections_recorded(self, gs_shg3_cart):
        cap = 0.5 * float(max(gs_shg3_cart.state.linf()))
        out = run_with_monitors(gs_shg3_cart.state,
                                EvolveConfig(dt=1e-3, t_end=0.1, blowup_linf=cap),
                                with_variance=False)
        assert (out.monitor, out.rejected) == ("linf", 0)
        # the first attempt drifts past the tolerance and its half lies below dt_min
        cfg = EvolveConfig(dt=1e-2, t_end=0.1, adaptive=True, dt_min=6e-3,
                           step_drift_tol=1e-15)
        out = run_with_monitors(gs_shg3_cart.state, cfg, with_variance=False)
        assert (out.status, out.monitor, out.t_detect) == ("blown_up", "dt_floor", 0.0)
        assert (out.steps, out.rejected, out.dt_final, out.dt_smallest) == (0, 1, 5e-3, 5e-3)
        out = run_with_monitors(gs_shg3_cart.state, EvolveConfig(dt=1e-2, t_end=0.05))
        assert out.as_json() == {"status": "completed", "monitor": None, "t_detect": None,
                                 "steps": 5, "rejected": 0, "dt_final": 1e-2,
                                 "dt_smallest": 1e-2}

    def test_adaptive_outcome_independent_of_sampling(self):
        # the per-step monitors between samples see the same values as a full
        # snapshot, so sampling every step changes only the diagnostics kept
        gs = petviashvili_solve(builtin_model("shg3"), 1.0, GridSpec("radial", 5, 256, 12.0))
        data = FieldState(gs.model, gs.grid, 1.2 * gs.profile.astype(complex), 0.0)
        outs = [run_with_monitors(data, EvolveConfig(
                    dt=1e-3, t_end=5.0, sample_every=every, blowup_K_factor=2.0,
                    adaptive=True, dt_min=1e-7, step_drift_tol=1e-5))
                for every in (1, 10)]
        dense, sparse = outs
        assert dense.status == "blown_up" and dense.monitor == "kinetic"
        assert dense.rejected > 0
        for name in ("status", "monitor", "t_detect", "steps", "rejected", "dt_final",
                     "dt_smallest"):
            assert getattr(sparse, name) == getattr(dense, name)
        assert len(dense.diagnostics) == dense.steps + 1
        assert list(sparse.diagnostics) == list(dense.diagnostics)[::10]
        assert np.array_equal(sparse.final.components, dense.final.components)


class TestStepMonitors:
    @pytest.mark.parametrize("name", ["shg3", "cascade3", "uv2"])
    @pytest.mark.parametrize("kind,dim,points", [("radial", 1, 64), ("radial", 3, 100),
                                                 ("radial", 5, 257), ("cartesian", 1, 64),
                                                 ("cartesian", 2, 32)])
    def test_lean_monitor_equals_functionals(self, name, kind, dim, points):
        # the adaptive loop's per-step Q and K read the raw array; they must
        # be the functionals of the same state, bit for bit
        m = builtin_model(name, beta=0.5)
        g = GridSpec(kind, dim, points, 7.0)
        rng = np.random.default_rng(points + dim)
        shape = (m.l,) + g.shape
        comps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stepper, st = Stepper(m, g), FieldState(m, g, comps, 0.0)
        assert stepper.charge(comps) == fn.charge(st)
        assert stepper.kinetic(comps) == fn.kinetic(st)

    def test_smallest_dt_recorded(self):
        # every accepted step is sampled, so the smallest sample spacing is
        # the smallest step size the controller reached
        gs = petviashvili_solve(builtin_model("shg3"), 1.0, GridSpec("radial", 5, 128, 12.0))
        data = FieldState(gs.model, gs.grid, 1.2 * gs.profile.astype(complex), 0.0)
        out = run_with_monitors(data, EvolveConfig(
            dt=1e-3, t_end=5.0, sample_every=1, blowup_K_factor=2.0, adaptive=True,
            dt_min=1e-7, step_drift_tol=1e-5), with_variance=False)
        assert out.rejected > 0
        spacing = np.diff(out.diagnostics.column("t"))
        assert out.dt_smallest == pytest.approx(np.min(spacing), rel=1e-9)
        assert out.dt_smallest < 1e-3 and out.as_json()["dt_smallest"] == out.dt_smallest


class TestChirp:
    def test_chirp_preserves_moduli(self, gs_shg3_cart):
        from qnls.evolve import apply_quadratic_chirp
        st = apply_quadratic_chirp(gs_shg3_cart.state, 0.3)
        assert fn.charge(st) == pytest.approx(gs_shg3_cart.Q, rel=1e-13)
        assert fn.interaction(st) == pytest.approx(gs_shg3_cart.P, rel=1e-12)

    def test_chirp_drives_contraction(self, gs_shg3_cart):
        from qnls.evolve import apply_quadratic_chirp
        st = apply_quadratic_chirp(gs_shg3_cart.state, 0.3)
        assert fn.variance_rate(st) < 0.0
        assert fn.variance_rate(gs_shg3_cart.state) == pytest.approx(0.0, abs=1e-10)


class TestVarianceRateConsistency:
    def test_first_difference_matches_rate(self):
        # sampled V' agrees with centered first differences of V to O(dt^2)
        m = builtin_model("shg3")
        g = GridSpec("cartesian", 1, 512, 20.0)
        x = g.axis()
        comps = np.stack([np.exp(-x**2), 0.5 * np.exp(-x**2),
                          0.5 * np.exp(-x**2)]).astype(complex)
        st = FieldState(m, g, comps, 0.0)
        out = run_with_monitors(st, EvolveConfig(dt=1e-3, t_end=0.5, sample_every=10))
        t = out.diagnostics.column("t")
        V = out.diagnostics.column("V")
        Vp = out.diagnostics.column("Vp")
        d1 = (V[2:] - V[:-2]) / (t[2:] - t[:-2])
        scale = np.max(np.abs(Vp))
        assert np.max(np.abs(d1 - Vp[1:-1])) / scale < 1e-3
