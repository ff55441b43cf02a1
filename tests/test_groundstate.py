from dataclasses import replace

import numpy as np
import pytest

from qnls import functionals as fn
from qnls import grids
from qnls.grids import FieldState, GridSpec
from qnls.groundstate import (PETVIASHVILI_DAMPING, PETVIASHVILI_LHS_REFRESH,
                              PETVIASHVILI_TOL, ConvergenceError, GroundStateResult,
                              amplified_initializer,
                              constrained_minimize, dilated_initializer,
                              elliptic_residual, lambda_star,
                              mass_preserving_dilation, modulated_distance,
                              peak_aligned_linf_error, petviashvili_solve,
                              read_groundstate_archive, spectral_shift,
                              write_groundstate_archive)
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
        dev = result.pohozaev_dev
        # spectral grid: the identities hold to near rounding
        assert max(dev) < 1e-8
        assert result.K / result.I == pytest.approx(1.0, abs=1e-8)
        assert result.Qcal / result.I == pytest.approx(5.0, abs=1e-7)
        assert result.P / result.I == pytest.approx(2.0, abs=1e-8)

    def test_radial_identities(self, gs_n3):
        dev = gs_n3.pohozaev_dev
        assert max(dev) < 1e-3
        assert gs_n3.K / gs_n3.I == pytest.approx(3.0, rel=1e-3)
        assert gs_n3.Qcal / gs_n3.I == pytest.approx(3.0, rel=2e-3)

    def test_profile_positive_interior(self, gs_n3):
        interior = gs_n3.profile[:, : int(0.5 * gs_n3.grid.N)]
        assert np.all(interior > 0.0)

    def test_linear_model_diverges(self):
        from qnls.nonlinearity import CoefficientSet, ModelSpec
        coeffs = CoefficientSet(alpha=np.ones(1), gamma=np.ones(1), beta=np.zeros(1))
        m = ModelSpec(coeffs=coeffs, terms=())
        with pytest.raises(ConvergenceError):
            petviashvili_solve(m, 1.0, GridSpec("cartesian", 1, 64, 10.0))

    def test_iterations_count_the_iterations_run(self, monkeypatch):
        # this n = 5 solve stops on the machine-converged branch (its residual
        # never reaches tol); each iteration evaluates f_k once, plus one
        # evaluation for the initial rescale and one for the best iterate
        from qnls.nonlinearity import ModelSpec
        calls = []
        eval_fk = ModelSpec.eval_fk

        def counted(self, *args, **kwargs):
            calls.append(1)
            return eval_fk(self, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "eval_fk", counted)
        result = petviashvili_solve(builtin_model("shg3"), 1.0,
                                    GridSpec("radial", 5, 1024, 12.0))
        assert result.residual >= 1e-10 and result.accepted_on == "floor"
        assert len(calls) == result.iterations + 2

    def test_left_side_applied_on_schedule_only(self, monkeypatch):
        # the left side is carried by its recurrence: it is applied directly
        # for the two initial sides, every PETVIASHVILI_LHS_REFRESH
        # iterations and for the accept; f_k is evaluated once per iterate
        # and once for the initial rescale, which scales it by c^2 (this
        # Cartesian solve never reaches the roundoff floor)
        from qnls.nonlinearity import ModelSpec
        calls = {"apply": 0, "fk": 0}
        shifted_apply, eval_fk = grids.shifted_apply, ModelSpec.eval_fk

        def counted_apply(*args):
            calls["apply"] += 1
            return shifted_apply(*args)

        def counted_fk(self, *args, **kwargs):
            calls["fk"] += 1
            return eval_fk(self, *args, **kwargs)

        monkeypatch.setattr(grids, "shifted_apply", counted_apply)
        monkeypatch.setattr(ModelSpec, "eval_fk", counted_fk)
        result = petviashvili_solve(builtin_model("shg3"), 1.0,
                                    GridSpec("cartesian", 2, 64, 8.0))
        assert result.residual < PETVIASHVILI_TOL and result.accepted_on == "tolerance"
        assert calls["apply"] <= 2 + result.iterations // PETVIASHVILI_LHS_REFRESH + 1
        assert calls["fk"] == result.iterations + 1

    # bound: the solver that applied the left side every iteration returned
    # 2.764e-7, 9.84e-11 and 1.91e-10; best-iterate comparisons made on
    # carried residuals on the roundoff floor return 6.6e-10 in the radial case
    @pytest.mark.parametrize("name,kind,n,N,R,bound", [
        ("cascade3", "cartesian", 2, 64, 10.0, 2.8e-7),   # clips; machine-converged
        ("cascade3", "cartesian", 2, 128, 12.0, 1e-10),   # clips; tolerance
        ("shg3", "radial", 5, 1024, 12.0, 2e-10)])        # machine-converged on the floor
    def test_returned_residual_is_direct(self, name, kind, n, N, R, bound):
        m = builtin_model(name)
        g = GridSpec(kind, n, N, R)
        result = petviashvili_solve(m, 1.0, g)
        assert result.residual == elliptic_residual(m, g, result.profile, m.coeffs.b(1.0))
        assert result.residual < bound

    @pytest.mark.parametrize("name", ["shg3", "uv2", "cascade3"])
    def test_stalled_clip_raises(self, name):
        # at h = 0.5 the clip stalls the iteration on the machine-converged
        # branch with a direct residual of 7e-6 to 1.1e-4, above its 1e-6
        # bound: the solve must fail rather than return that residual
        with pytest.raises(ConvergenceError, match="stalled at residual"):
            petviashvili_solve(builtin_model(name), 1.0, GridSpec("cartesian", 2, 64, 16.0))

    def test_failing_solve_makes_one_attempt(self, monkeypatch):
        # the stalled solve above raises from its one run of the iteration
        from qnls import groundstate
        runs, iterate = [], groundstate._petviashvili_iterate
        monkeypatch.setattr(groundstate, "_petviashvili_iterate",
                            lambda *args: runs.append(1) or iterate(*args))
        with pytest.raises(ConvergenceError, match="^stalled at residual"):
            petviashvili_solve(builtin_model("shg3"), 1.0, GridSpec("cartesian", 2, 64, 16.0))
        assert len(runs) == 1

    @pytest.mark.parametrize("name,N,R,iterations", [
        ("shg3", 64, 8.0, 77), ("uv2", 64, 8.0, 74),
        ("cascade3", 128, 12.0, 80)])  # cascade3 clips every iteration here
    def test_iteration_counts_unchanged_by_the_carried_left_side(self, name, N, R, iterations):
        # the counts of the solver that applied the left side every iteration
        result = petviashvili_solve(builtin_model(name), 1.0, GridSpec("cartesian", 2, N, R))
        assert result.residual < PETVIASHVILI_TOL
        assert abs(result.iterations - iterations) <= 1

    def test_iteration_makes_no_full_size_array(self):
        # The loop holds five stacks (psi, lhs, f_k, the work buffer and the
        # best iterate) and the resolvent its reciprocal and one field's half
        # spectrum (about 0.85 of a stack); its temporaries are one field of
        # the stack.  That reads 6.03 stacks above the solve's entry (10.57
        # when each iteration made its iterate, fields and residual afresh).
        # One more stack-size temporary reads 6.52 when it is freed before the
        # resolvent runs (psi + work, np.maximum(psi, 0) or eval_fk(psi)
        # made afresh), 6.85 to 7.03 when it lives through the resolvent.
        import tracemalloc
        m, g = builtin_model("shg3"), GridSpec("cartesian", 2, 128, 12.0)
        stack = 8 * m.l * g.size
        petviashvili_solve(m, 1.0, g)  # the cached wavenumbers and coordinates
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = petviashvili_solve(m, 1.0, g)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert result.iterations == 77
        assert peak < 6.25 * stack

    def test_stabilization_factor_converged(self, gs_n3):
        # at the fixed point the stabilization factor is 1: re-apply one sweep
        state = gs_n3
        b = state.model.coeffs.b(1.0)
        res = elliptic_residual(state.model, state.grid, state.profile, b)
        assert res == pytest.approx(state.residual, rel=1e-6)


class TestMixingSpectrum:
    """Without S, the undamped map psi -> M^{-1} f(psi), M = -gamma Lap + b,
    linearizes at a converged profile to M^{-1} J, J the Jacobian of f_k.
    Its spectrum: 2 on psi, which the factor S^2 removes; 1 on the
    translations of Cartesian grids; -1 on the gauge mode; the rest inside
    (-1, 1).  The mixing d maps mu to 1 - d (1 - mu), which must damp the -1
    mode (d < 1) and the slowest mode below 1 (d not small):
    PETVIASHVILI_DAMPING contracts every mode but psi and the translations
    by 0.8 or better."""

    @pytest.mark.parametrize("grid", [GridSpec("cartesian", 1, 128, 16.0),
                                      GridSpec("radial", 3, 160, 14.0)], ids=["cart1", "rad3"])
    @pytest.mark.parametrize("name", ["shg3", "cascade3", "uv2"])
    def test_damped_map_contracts(self, name, grid):
        m = builtin_model(name)
        psi = petviashvili_solve(m, 1.0, grid).profile
        # f_k is quadratic: central differences with unit steps are exact
        steps = np.eye(psi.size).reshape((psi.size,) + psi.shape)
        jac = (m.eval_fk(np.moveaxis(psi + steps, 0, 1))
               - m.eval_fk(np.moveaxis(psi - steps, 0, 1))).real / 2.0
        solve = grids.shifted_solver(grid, m.coeffs.b(1.0), m.coeffs.gamma)
        linearized = np.stack([solve(col).ravel() for col in np.moveaxis(jac, 1, 0)], axis=1)
        mu, vectors = np.linalg.eig(linearized)
        low = np.argmin(mu.real)
        assert abs(mu[low] + 1.0) < 1e-8
        damped = mu[(np.abs(mu - 1.0) > 1e-6) & (np.abs(mu - 2.0) > 1e-6)]
        assert np.max(np.abs(1.0 - PETVIASHVILI_DAMPING * (1.0 - damped))) <= 0.8
        if name == "cascade3":
            return  # F conjugates z2 in one term and not in the other
        # the gauge mode sigma_k psi_k, its sign flipped on the components F conjugates
        conj = np.array([any(t.conj_powers[k] for t in m.terms) for k in range(m.l)])
        mode = (np.where(conj, -1.0, 1.0) * m.coeffs.sigma)[:, None] * psi
        mode = mode.ravel() / np.linalg.norm(mode)
        v = vectors[:, low]
        v = (v / v[np.argmax(np.abs(v))]).real
        v /= np.linalg.norm(v)
        assert min(np.linalg.norm(v - mode), np.linalg.norm(v + mode)) < 1e-9


class TestResolvent:
    @pytest.mark.parametrize("kind,n,N", [
        *[pytest.param("cartesian", n, N, id=f"{n}-{N}")
          for n, N in [(1, 64), (1, 63), (2, 32), (2, 31), (3, 16), (3, 15)]],
        *[("radial", n, N) for n in range(1, 6) for N in (16, 63, 256)]])
    @pytest.mark.parametrize("name", ["shg3", "uv2"])
    def test_inverts_the_operator(self, name, kind, n, N):
        m = builtin_model(name)
        g = GridSpec(kind, n, N, 3.0)
        b = m.coeffs.b(1.0)
        f = np.random.default_rng(N).normal(size=(m.l,) + g.shape)
        u = grids.shifted_solver(g, b, m.coeffs.gamma)(f)
        assert u.dtype == np.float64 and u.shape == f.shape
        back = grids.shifted_apply(g, b, m.coeffs.gamma, u)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (2, 31), (3, 16)])
    def test_cartesian_spectra_in_place_are_bit_identical(self, n, N):
        # the resolvent, the real Laplacian, the shifted operator and the
        # propagator work on their spectrum or output in place, byte for byte
        # as out of place
        m = builtin_model("shg3")
        g = GridSpec("cartesian", n, N, 3.0)
        b, gamma = m.coeffs.b(1.0), m.coeffs.gamma
        rng = np.random.default_rng(N)
        f = rng.normal(size=(m.l,) + g.shape)
        u = f + 1j * rng.normal(size=f.shape)
        f_before, u_before = f.copy(), u.copy()
        axes = tuple(range(-n, 0))
        ksq = grids._cartesian_half_ksq(g)
        denom = np.stack([c * ksq + s for s, c in zip(b, gamma)])
        solved = np.fft.irfftn(np.fft.rfftn(f, axes=axes) / denom, s=g.shape, axes=axes)
        lap = np.fft.irfftn(-ksq * np.fft.rfftn(f, axes=axes), s=g.shape, axes=axes)
        ones = (1,) * n
        shifted = b.reshape((-1,) + ones) * f - gamma.reshape((-1,) + ones) * lap
        solve = grids.shifted_solver(g, b, gamma)
        assert solve(f).tobytes() == solved.tobytes()
        buf = np.empty_like(f)
        assert solve(f, out=buf) is buf and buf.tobytes() == solved.tobytes()
        assert grids.apply_laplacian(g, f).tobytes() == lap.tobytes()
        assert grids.shifted_apply(g, b, gamma, f).tobytes() == shifted.tobytes()
        assert np.array_equal(f, f_before)

        alpha, beta = np.array([1.0, 2.0, 0.5]), np.array([0.5, -0.3, 0.0])
        phases = np.stack([np.exp(0.1j / a * (-c * grids._cartesian_ksq(g) - s))
                           for a, s, c in zip(alpha, beta, gamma)])
        stepped = np.fft.ifftn(np.fft.fftn(u, axes=axes) * phases, axes=axes)
        step = grids.propagator(g, 0.1, alpha, beta, gamma)
        assert step(u).tobytes() == stepped.tobytes()
        assert np.array_equal(u, u_before)
        assert step(u, overwrite_x=True) is u and u.tobytes() == stepped.tobytes()

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 16), (3, 8)])
    def test_cartesian_refuses_complex_fields(self, n, N, monkeypatch):
        g = GridSpec("cartesian", n, N, 3.0)
        solve = grids.shifted_solver(g, [1.0, 2.0], [1.0, 1.0])
        monkeypatch.setattr(np.fft, "rfftn", None)  # refused before any transform
        f = np.ones((2,) + g.shape, dtype=complex)
        with pytest.raises(ValueError, match="Cartesian resolvent takes real fields"):
            solve(f)


class TestPohozaev:
    def test_nonpositive_action_rejected(self):
        # a tall Gaussian: its cubic interaction outweighs the quadratic terms
        m = builtin_model("shg3")
        g = GridSpec("radial", 3, 128, 10.0)
        tall = 100.0 * np.stack([np.exp(-g.axis() ** 2)] * 3)
        with pytest.raises(ValueError, match="non-positive action"):
            GroundStateResult(m, g, 1.0, tall, residual=0.0, iterations=0)

    def test_functionals_derived_from_the_profile(self, gs_n3):
        # the functionals follow the profile and are no constructor argument
        st = gs_n3.state
        assert (gs_n3.K, gs_n3.Qcal) == (fn.kinetic(st), fn.weighted_mass(st, 1.0))
        assert (gs_n3.P, gs_n3.Q) == (fn.interaction(st), fn.charge(st))
        assert gs_n3.I == fn.action(st, 1.0)
        # halving the profile scales K, Qcal, Q by 1/4 and P by 1/8, exactly
        half = replace(gs_n3, profile=0.5 * gs_n3.profile)
        assert (half.K, half.Qcal, half.Q, half.P) == \
            (gs_n3.K / 4, gs_n3.Qcal / 4, gs_n3.Q / 4, gs_n3.P / 8)
        with pytest.raises(TypeError):
            GroundStateResult(gs_n3.model, gs_n3.grid, 1.0, gs_n3.profile, 0.0, 0, K=1.0)


class TestWeinsteinInfimum:
    def test_quotient_from_the_functionals_in_hand(self, monkeypatch):
        # the result's J is weinstein_quotient of its profile, with K
        # evaluated once per solve
        calls = []
        kinetic = fn.kinetic
        monkeypatch.setattr(fn, "kinetic", lambda state: calls.append(1) or kinetic(state))
        result = petviashvili_solve(builtin_model("shg3"), 1.0, GridSpec("radial", 3, 256, 14.0))
        assert len(calls) == 1
        assert result.J == fn.weinstein_quotient(result.state, 1.0)
        assert result.J == fn.weinstein_quotient_of(result.K, result.Qcal, result.P, 3)

    def test_xi1_matches_quotient(self, gs_n3, gs_n5):
        assert fn.weinstein_infimum(gs_n3.Qcal, 3) == pytest.approx(gs_n3.J, rel=1e-3)
        assert fn.weinstein_infimum(gs_n5.Qcal, 5) == pytest.approx(gs_n5.J, rel=1e-3)


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
        assert dilated_initializer(gs_n5.state, 1.5).grid.extent \
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
            amplified_initializer(gs4.state, 0.0)


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
        assert modulated_distance(r.minimizer, gs.state, relative=False) < 1e-5
        assert r.I_nu == pytest.approx(gs.K - 2 * gs.P, rel=1e-9)

    def test_radial_flow_converges(self):
        # K is the quadratic form of the solver's own Lap_h, so the flow's
        # fixed point solves the discrete Euler-Lagrange equation
        r = constrained_minimize(builtin_model("uv2"), 1.0, GridSpec("radial", 1, 256, 12.0))
        assert r.residual < 1e-6 and r.iterations < 1000

    def test_radial_minimizer_matches_stationary_branch(self):
        m, g = builtin_model("uv2"), GridSpec("radial", 1, 256, 15.0)
        gs = petviashvili_solve(m, 1.0, g)
        r = constrained_minimize(m, gs.Q, g)
        assert r.lagrange_theta == pytest.approx(-1.0, abs=1e-6)
        assert modulated_distance(r.minimizer, gs.state, relative=False) < 1e-5
        assert r.I_nu == pytest.approx(gs.K - 2 * gs.P, rel=1e-9)

    def test_one_resolvent_per_step_size(self, cmin_setup, monkeypatch):
        # from a large first step the energy rises and tau halves several
        # times; tau never returns, so each resolvent is built once, in turn
        from qnls import groundstate
        shifts, shifted_solver = [], grids.shifted_solver

        def counted(grid, shift, scale):
            shifts.append(float(shift[0]))  # beta = 0: the shift is 1/tau
            return shifted_solver(grid, shift, scale)

        monkeypatch.setattr(groundstate, "FLOW_TAU", 10.0)
        monkeypatch.setattr(grids, "shifted_solver", counted)
        m, g, _ = cmin_setup
        constrained_minimize(m, 20.0, g)
        assert len(shifts) > 3 and shifts[0] == 0.1
        assert shifts == [0.1 * 2.0**k for k in range(len(shifts))]

    def test_residual_is_the_elliptic_residual(self, cmin_setup):
        # the Euler-Lagrange equation is the stationary system at
        # b = beta - theta w, whose residual the flow stops on
        m, g, _ = cmin_setup
        r = constrained_minimize(m, 1.0, g)
        phi = np.ascontiguousarray(r.minimizer.components.real)
        b = m.coeffs.beta - r.lagrange_theta * m.coeffs.charge_weights
        assert r.residual == elliptic_residual(m, g, phi, b)

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

    def test_trailer_holds_the_solve_record(self, gs_n3, tmp_path):
        path = tmp_path / "gs.qnls"
        write_groundstate_archive(gs_n3, path)
        trailer = grids.read_snapshot_raw(path, return_trailer=True)[3]
        head = trailer.partition("[model]")[0].split()
        assert [line.partition("=")[0] for line in head] == \
            ["omega", "residual", "iterations", "accepted_on"]

    def test_earlier_format_reads_with_derived_functionals(self, gs_n3, tmp_path):
        # the trailer of the earlier format also stored the functionals, the
        # identity deviations and the restarts; here its K is wrong.  The
        # reader ignores those lines and derives the functionals from the
        # profile, bit-equal to the fresh solve's
        from qnls.nonlinearity import model_lines
        g, path = gs_n3, tmp_path / "gs.qnls"
        grids.write_snapshot(g.state, path)
        dev = ",".join(repr(d) for d in g.pohozaev_dev)
        lines = ["", f"omega={g.omega!r}", f"I={g.I!r}", f"K={2.0 * g.K!r}",
                 f"Qcal={g.Qcal!r}", f"P={g.P!r}", f"Q={g.Q!r}", f"J={g.J!r}",
                 f"residual={g.residual!r}", f"iterations={g.iterations}", "restarts=0",
                 f"accepted_on={g.accepted_on}", f"pohozaev_dev={dev}",
                 "[model]"] + model_lines(g.model)
        with open(path, "ab") as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
        back = read_groundstate_archive(path)
        for name in ("K", "Qcal", "P", "Q", "I", "J", "pohozaev_dev"):
            assert getattr(back, name) == getattr(g, name), name
        assert (back.residual, back.iterations, back.accepted_on) == \
            (g.residual, g.iterations, g.accepted_on)

    @pytest.mark.parametrize("branch", ["tolerance", "floor"])
    def test_accepted_on_round_trip(self, gs_n3, tmp_path, branch):
        path = tmp_path / "gs.qnls"
        write_groundstate_archive(replace(gs_n3, accepted_on=branch), path)
        assert read_groundstate_archive(path).accepted_on == branch
        # an archive written before the accepted_on line existed reads as None
        path.write_bytes(path.read_bytes().replace(f"accepted_on={branch}\n".encode(), b""))
        assert read_groundstate_archive(path).accepted_on is None

    def test_accepted_on_none_and_bad_values(self, gs_n3, tmp_path):
        path = tmp_path / "gs.qnls"
        write_groundstate_archive(replace(gs_n3, accepted_on=None), path)
        assert read_groundstate_archive(path).accepted_on is None
        path.write_bytes(path.read_bytes().replace(b"accepted_on=\n", b"accepted_on=tol\n"))
        with pytest.raises(ValueError, match="accepted_on='tol'"):
            read_groundstate_archive(path)

    @pytest.mark.parametrize("line", [b"iterations="])
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
        from qnls.grids import symmetric_decreasing_rearrangement
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
            rearr = np.stack([symmetric_decreasing_rearrangement(g, c) for c in comps])
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
