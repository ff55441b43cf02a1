import io
import math

import numpy as np
import pytest

from qnls import functionals as fn
from qnls.grids import FieldState, GridSpec, surface_area_coefficient
from qnls.groundstate import mass_preserving_dilation, petviashvili_solve
from qnls.nonlinearity import builtin_model


def random_state(model, grid, seed=0, complex_valued=True):
    rng = np.random.default_rng(seed)
    rsq = np.sum(np.meshgrid(*[grid.axis()**2] * grid.n, indexing="ij"), axis=0) \
        if grid.kind == "cartesian" and grid.n > 1 else grid.axis() ** 2
    comps = []
    for _ in range(model.l):
        c = sum(rng.uniform(0.3, 1.0)
                * np.exp(-rsq / rng.uniform(0.5, 2.0)) for _ in range(2))
        if complex_valued:
            c = c * np.exp(1j * rng.uniform(0, 2 * np.pi))
        comps.append(c)
    return FieldState(model, grid, np.stack(comps).astype(complex), 0.0)


@pytest.fixture(scope="module")
def uv2():
    return builtin_model("uv2")


@pytest.fixture(scope="module")
def grid1():
    return GridSpec("cartesian", 1, 256, 15.0)


class TestBasicFunctionals:
    def test_zero_state(self, uv2, grid1):
        st = FieldState(uv2, grid1, np.zeros((2, 256), dtype=complex), 0.0)
        assert fn.charge(st) == 0.0
        assert fn.energy(st) == 0.0
        assert fn.interaction(st) == 0.0

    def test_charge_quadratic_scaling(self, uv2, grid1):
        st = random_state(uv2, grid1)
        st2 = FieldState(uv2, grid1, 2.0 * st.components, 0.0)
        assert fn.charge(st2) == pytest.approx(4.0 * fn.charge(st), rel=1e-13)

    def test_charge_gaussian_pair(self, grid1):
        m = builtin_model("uv2", kappa=1.0)  # alpha = gamma = (1,1)
        g = GridSpec("cartesian", 1, 512, 20.0)
        x = g.axis()
        st = FieldState(m, g, np.stack([np.exp(-x**2)] * 2).astype(complex), 0.0)
        assert fn.charge(st) == pytest.approx(2.0 * np.sqrt(np.pi / 2), abs=1e-10)

    def test_interaction_cubic_scaling(self, uv2, grid1):
        st = random_state(uv2, grid1, complex_valued=False)
        st2 = FieldState(uv2, grid1, 2.0 * st.components, 0.0)
        assert fn.interaction(st2) == pytest.approx(8.0 * fn.interaction(st), rel=1e-13)

    def test_energy_decomposition(self, grid1):
        m = builtin_model("shg3", beta=(0.5, 1.0, 0.25))
        st = random_state(m, grid1, seed=3)
        E = fn.energy(st)
        assert E == pytest.approx(fn.kinetic(st) + fn.linear_term(st)
                                  - 2.0 * fn.interaction(st), rel=1e-14)

    def test_linear_model_energy(self, grid1):
        from qnls.nonlinearity import CoefficientSet, ModelSpec
        coeffs = CoefficientSet(alpha=np.ones(1), gamma=np.ones(1), beta=np.array([2.0]))
        m = ModelSpec(coeffs=coeffs, terms=())
        st = random_state(m, grid1, seed=4)
        assert fn.energy(st) == pytest.approx(fn.kinetic(st) + fn.linear_term(st))

    @pytest.mark.parametrize("grid", [GridSpec("cartesian", 1, 256, 15.0),
                                      GridSpec("cartesian", 2, 64, 8.0),
                                      GridSpec("radial", 5, 512, 12.0)])
    def test_stacked_sums_equal_component_loops(self, grid):
        from qnls import grids
        m = builtin_model("shg3", beta=(0.5, 1.0, 0.25))
        st = random_state(m, grid, seed=5)
        c, u = m.coeffs, st.components

        def loop(w, norm=grids.norm_sq):
            return float(sum(w[k] * norm(grid, u[k]) for k in range(m.l)))

        assert fn.charge(st) == loop(c.alpha**2 / c.gamma)
        assert fn.linear_term(st) == loop(c.beta)
        assert fn.weighted_mass(st, 1.3) == loop(c.b(1.3))
        assert fn.kinetic(st) == loop(c.gamma, grids.grad_sq_integral)


class TestActionAndQuotient:
    def test_action_zero(self, uv2, grid1):
        st = FieldState(uv2, grid1, np.zeros((2, 256), dtype=complex), 0.0)
        assert fn.action(st, 1.0) == 0.0

    def test_action_not_homogeneous(self, uv2, grid1):
        st = random_state(uv2, grid1, complex_valued=False)
        assert fn.action(FieldState(uv2, grid1, 2 * st.components, 0.0), 1.0) \
            != pytest.approx(2 * fn.action(st, 1.0), rel=1e-3)

    def test_inadmissible_omega(self, grid1):
        m = builtin_model("uv2")  # beta = 0
        st = random_state(m, grid1)
        with pytest.raises(ValueError):
            fn.action(st, -1.0)

    def test_quotient_scale_invariance(self, uv2, grid1):
        st = random_state(uv2, grid1, complex_valued=False, seed=9)
        J = fn.weinstein_quotient(st, 1.0)
        amp = FieldState(uv2, grid1, 1.7 * st.components, 0.0)
        assert fn.weinstein_quotient(amp, 1.0) == pytest.approx(J, rel=1e-12)
        dil = FieldState(uv2, grid1.scaled(1.3), st.components, 0.0)
        assert fn.weinstein_quotient(dil, 1.0) == pytest.approx(J, rel=1e-12)

    def test_quotient_modulus_inequality(self, uv2, grid1):
        rng = np.random.default_rng(12)
        for seed in range(5):
            st = random_state(uv2, grid1, seed=seed)
            # random relative phases can only lower the interaction
            mod = FieldState(uv2, grid1, np.abs(st.components).astype(complex), 0.0)
            if fn.interaction(st) <= 0:
                continue
            assert fn.weinstein_quotient(mod, 1.0) <= fn.weinstein_quotient(st, 1.0) + 1e-12

    def test_quotient_undefined_at_zero_interaction(self, uv2, grid1):
        st = FieldState(uv2, grid1, np.zeros((2, 256), dtype=complex), 0.0)
        with pytest.raises(ValueError):
            fn.weinstein_quotient(st, 1.0)

    def test_scaling_table(self, uv2, grid1):
        # Qcal -> a^2 l^n Qcal, K -> a^2 l^(n-2) K, P -> a^3 l^n P
        st = random_state(uv2, grid1, complex_valued=False, seed=2)
        a, lam = 1.3, 0.8
        Q0, K0, P0 = fn.weighted_mass(st, 1.0), fn.kinetic(st), fn.interaction(st)
        dil = FieldState(uv2, grid1.scaled(lam), a * st.components, 0.0)
        n = grid1.n
        assert fn.weighted_mass(dil, 1.0) == pytest.approx(a**2 * lam**n * Q0, rel=1e-10)
        assert fn.kinetic(dil) == pytest.approx(a**2 * lam ** (n - 2) * K0, rel=1e-10)
        assert fn.interaction(dil) == pytest.approx(a**3 * lam**n * P0, rel=1e-10)

    def test_sharp_constant_reciprocal(self):
        for n in range(1, 6):
            q = 3.7
            assert fn.sharp_constant(q, n) * fn.weinstein_infimum(q, n) \
                == pytest.approx(1.0, rel=1e-14)

    def test_sharp_constant_arithmetic(self):
        q = 2.0
        assert fn.sharp_constant(q, 4) == pytest.approx(1.0 / (2.0 * np.sqrt(q)))
        assert fn.sharp_constant(q, 5) == pytest.approx(2.0 / (5.0**1.25 * np.sqrt(q)))
        assert fn.weinstein_infimum(q, 1) == pytest.approx(0.5 * 5.0**0.75 * np.sqrt(q))


class TestVarianceAndVirial:
    def test_real_gaussian(self, uv2):
        g = GridSpec("cartesian", 1, 512, 15.0)
        x = g.axis()
        st = FieldState(uv2, g, np.stack([np.exp(-x**2)] * 2).astype(complex), 0.0)
        w = uv2.coeffs.alpha**2 / uv2.coeffs.gamma
        expected = float(np.sum(w)) * np.sqrt(np.pi / 2) / 4.0
        assert fn.variance(st) == pytest.approx(expected, abs=1e-10)
        assert fn.variance_rate(st) == pytest.approx(0.0, abs=1e-12)

    def test_chirped_positive_rate(self, uv2):
        g = GridSpec("cartesian", 1, 512, 15.0)
        x = g.axis()
        u = np.exp(1j * 0.5 * x**2 - x**2)
        st = FieldState(uv2, g, np.stack([u, u]), 0.0)
        assert fn.variance_rate(st) > 0.0

    def test_boundary_warning(self, uv2):
        g = GridSpec("cartesian", 1, 128, 5.0)
        x = g.axis()
        st = FieldState(uv2, g, np.stack([np.exp(-((x / 6) ** 2))] * 2).astype(complex), 0.0)
        with pytest.warns(UserWarning):
            fn.variance(st)

    def test_rhs_forms_agree(self, grid1):
        m = builtin_model("shg3", beta=(0.3, 0.6, 0.9))
        for seed in range(4):
            st = random_state(m, grid1, seed=seed)
            E0 = fn.energy(st)
            a = fn.virial_rhs(st, E0)
            b = fn.virial_rhs_gradient_form(st)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_n4_coefficient_vanishes(self):
        # at n=4 the kinetic coefficient 2(4-n) is zero
        m = builtin_model("shg3")
        g = GridSpec("radial", 4, 128, 8.0)
        st = random_state(m, g, seed=1, complex_valued=False)
        E0 = 1.23
        assert fn.virial_rhs(st, E0) == pytest.approx(8 * E0 - 8 * fn.linear_term(st))

    def test_virial_functional_dimension_guard(self, uv2, grid1):
        st = random_state(uv2, grid1)
        with pytest.raises(ValueError):
            fn.virial_functional(st)

    def test_virial_functional_zero_state(self):
        m = builtin_model("shg3")
        g = GridSpec("radial", 5, 64, 8.0)
        st = FieldState(m, g, np.zeros((3, 64), dtype=complex), 0.0)
        assert fn.virial_functional(st) == 0.0


class TestVarianceRateOracles:
    """V' = 4 sum_k alpha_k Im int (grad u_k . x) conj(u_k) on closed forms;
    both uv2 components carry the same field, so V' is 4 sum(alpha) times
    one momentum integral."""

    @staticmethod
    def _rate(model, grid, u):
        return fn.variance_rate(FieldState(model, grid, np.stack([u, u]), 0.0))

    def test_real_field_zero(self, uv2):
        g = GridSpec("cartesian", 1, 256, 10.0)
        assert abs(self._rate(uv2, g, np.exp(-g.axis() ** 2))) \
            < 4.0 * np.sum(uv2.coeffs.alpha) * 1e-14

    def test_plane_phase_odd_integrand(self, uv2):
        g = GridSpec("cartesian", 1, 512, 15.0)
        x = g.axis()
        u = np.exp(1j * (np.pi * 5 / 15.0) * x) * np.exp(-x**2)
        assert abs(self._rate(uv2, g, u)) < 4.0 * np.sum(uv2.coeffs.alpha) * 1e-12

    def test_chirped_gaussian(self, uv2):
        # Im int (d/dx u) x conj(u) for u = e^{i b x^2} e^{-x^2} is 2b int x^2 e^{-2x^2}
        g = GridSpec("cartesian", 1, 1024, 15.0)
        x = g.axis()
        b = 0.7
        expected = 4.0 * np.sum(uv2.coeffs.alpha) * 2 * b * np.sqrt(np.pi / 2) / 4.0
        rate = self._rate(uv2, g, np.exp(1j * b * x**2 - x**2))
        assert rate == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_radial_chirp(self, uv2, n):
        g = GridSpec("radial", n, 1024, 12.0)
        r = g.axis()
        b = 0.4
        # Im(u' r conj(u)) = 2 b r^2 e^{-2 r^2}, and omega_{n-1} int r^{n+1} e^{-2r^2} dr
        # = omega_{n-1} Gamma(n/2 + 1) / 2^{n/2 + 2}
        momentum = 2 * b * surface_area_coefficient(n) * math.gamma(n / 2 + 1) / 2 ** (n / 2 + 2)
        rate = self._rate(uv2, g, np.exp(1j * b * r**2 - r**2))
        # the radial operator is a second-order finite-volume stencil
        assert rate == pytest.approx(4.0 * np.sum(uv2.coeffs.alpha) * momentum, rel=1e-3)


@pytest.fixture(scope="module")
def gs5():
    m = builtin_model("shg3")
    return petviashvili_solve(m, 1.0, GridSpec("radial", 5, 1536, 12.0))


class TestThreshold:
    def test_global_and_blowup(self, gs5):
        for c, expected in ((0.9, fn.GLOBAL), (1.2, fn.BLOWUP)):
            data = FieldState(gs5.model, gs5.grid, c * gs5.profile.astype(complex), 0.0)
            rep = fn.threshold_report(data, gs5.state)
            assert rep.classification == expected
            # the c=1.2 energy product is a small difference of large terms,
            # so its discretization sensitivity is roughly tenfold
            rel = 5e-3 if c < 1 else 2e-2
            assert rep.QE / rep.QE_gs == pytest.approx(c**4 * (5 - 4 * c), rel=rel)
            assert rep.QK / rep.QK_gs == pytest.approx(c**4, rel=5e-3)

    def test_boundary_indeterminate(self, gs5):
        rep = fn.threshold_report(gs5.state, gs5.state)
        assert rep.classification == fn.INDETERMINATE

    def test_refuses_beta_ground_state(self, gs5):
        # the statements, and the ground state's energy Kg - 2 Pg, are those
        # of beta = 0
        beta_gs = FieldState(builtin_model("shg3", beta=0.2), gs5.grid,
                             gs5.profile.astype(complex), 0.0)
        data = FieldState(beta_gs.model, gs5.grid, 0.9 * beta_gs.components, 0.0)
        with pytest.raises(ValueError, match="beta = 0"):
            fn.threshold_report(data, beta_gs)

    def test_dimension_guard(self, uv2, grid1):
        st = random_state(uv2, grid1)
        with pytest.raises(ValueError):
            fn.threshold_report(st, st)

    def test_n4_charge_rule(self):
        m = builtin_model("shg3")
        gs4 = petviashvili_solve(m, 1.0, GridSpec("radial", 4, 512, 14.0))
        small = FieldState(m, gs4.grid, 0.8 * gs4.profile.astype(complex), 0.0)
        big = FieldState(m, gs4.grid, 1.3 * gs4.profile.astype(complex), 0.0)
        assert fn.threshold_report(small, gs4.state).classification == fn.GLOBAL
        assert fn.threshold_report(big, gs4.state).classification == fn.INDETERMINATE

    def test_dilation_functional_scaling(self, gs5):
        K = gs5.K
        for lam in (1.5, 2.0):
            st = mass_preserving_dilation(gs5.state, lam)
            assert fn.virial_functional(st) == pytest.approx(
                lam**2 * (1 - np.sqrt(lam)) * K, rel=2e-3)

    def test_gn_inequality_sampled(self, gs5):
        cop = fn.sharp_constant(gs5.Qcal, 5)
        rng = np.random.default_rng(21)
        r = gs5.grid.axis()
        for _ in range(50):
            comps = np.stack([rng.uniform(0.2, 2.0)
                              * np.exp(-(r / rng.uniform(0.7, 2.0)) ** 2)
                              for _ in range(3)]).astype(complex)
            st = FieldState(gs5.model, gs5.grid, comps, 0.0)
            P = fn.interaction(st)
            bound = cop * fn.weighted_mass(st, 1.0) ** 0.25 * fn.kinetic(st) ** 1.25
            assert P <= bound

    def test_equality_at_ground_state(self, gs5):
        cop = fn.sharp_constant(gs5.Qcal, 5)
        bound = cop * gs5.Qcal**0.25 * gs5.K**1.25
        assert gs5.P == pytest.approx(bound, rel=5e-3)


class TestDiagnosticsCSV:
    def test_round_trip(self, tmp_path):
        snaps = [fn.FunctionalSnapshot(t=0.1 * i, Q=1.0 + i, E=-0.5, K=2.0, L=0.0,
                                       P=1.25, V=3.0, Vp=0.125, linf=(1.0, 0.5))
                 for i in range(4)]
        path = tmp_path / "diag.csv"
        fn.write_diagnostics_csv(snaps, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,Q,E,K,L,P,V,Vp,linf_1,linf_2"
        back = fn.read_diagnostics_csv(path)
        assert len(back) == 4
        assert back[2].Q == snaps[2].Q  # repr round-trip is exact
        assert back[3].linf == snaps[3].linf

    def test_buffer_write(self):
        snaps = [fn.FunctionalSnapshot(0.0, 1, 2, 3, 4, 5, 6, 7, (8.0,))]
        buf = io.StringIO()
        fn.write_diagnostics_csv(snaps, buf)
        assert buf.getvalue().startswith("t,Q,E,K,L,P,V,Vp,linf_1")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fn.write_diagnostics_csv([], tmp_path / "x.csv")

    GOOD = "t,Q,E,K,L,P,V,Vp,linf_1\n0.0,1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0\n"

    @pytest.mark.parametrize("text,field", [
        (GOOD.replace("3.0", "x"), "K='x'"),
        (GOOD.replace("8.0", "x"), "linf_1='x'"),
        (GOOD.replace(",8.0", ""), "8 fields, expected 9"),
        (GOOD.replace(",8.0", ",8.0,9.0"), "10 fields, expected 9"),
        (GOOD.replace("K,", "k,"), "header"),
        (GOOD.replace(",linf_1", ""), "header"),
        ("", "header"),
    ], ids=["bad-value", "bad-linf", "short-row", "long-row", "renamed-column",
            "no-linf", "empty"])
    def test_malformed_file_names_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "diag.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            fn.read_diagnostics_csv(path)
        assert type(info.value) is ValueError
        assert str(path) in str(info.value)
        assert field in str(info.value)
