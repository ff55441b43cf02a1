import numpy as np
import pytest

from qnls.nonlinearity import (CoefficientSet, ModelSpec, Monomial, TrilinearPotential,
                               builtin_model, check_degree_identity, check_gauge,
                               check_mass_balance, check_real_cone,
                               check_supermodularity, derive_fk, parse_model_lines,
                               read_model_file, validate_model, write_model_file)


def counterexample_phase():
    """F = z1 z2 z3 (+ conjugate, to stay real on the reals) with sigma=(1,1,1)."""
    terms = (Monomial(0.5, (1, 1, 1), (0, 0, 0)), Monomial(0.5, (0, 0, 0), (1, 1, 1)))
    coeffs = CoefficientSet(alpha=np.ones(3), gamma=np.ones(3), beta=np.zeros(3))
    return ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=3, terms=terms))


def counterexample_supermodular():
    """Real restriction -2 y1 y2 y3: negative cross partials on the cone."""
    terms = (Monomial(-1.0, (1, 1, 0), (0, 0, 1)), Monomial(-1.0, (0, 0, 1), (1, 1, 0)))
    coeffs = CoefficientSet(alpha=np.ones(3), gamma=np.ones(3), beta=np.zeros(3))
    return ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=3, terms=terms))


class TestMonomialInvariants:
    def test_degree_three_enforced(self):
        with pytest.raises(ValueError):
            Monomial(1.0, (1, 0), (1, 0))  # degree 2

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Monomial(0.0, (2, 0), (1, 0))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(1.0, (4, 0), (-1, 0))

    def test_component_count_consistent(self):
        with pytest.raises(ValueError):
            TrilinearPotential(l=3, terms=(Monomial(1.0, (2, 1), (0, 0)),))


class TestCoefficients:
    def test_positivity(self):
        with pytest.raises(ValueError):
            CoefficientSet(alpha=np.array([1.0, -1.0]), gamma=np.ones(2), beta=np.zeros(2))
        with pytest.raises(ValueError):
            CoefficientSet(alpha=np.ones(2), gamma=np.ones(2), beta=np.array([0.0, -0.1]))

    def test_b_admissibility(self):
        c = CoefficientSet(alpha=np.ones(2), gamma=np.ones(2), beta=np.zeros(2))
        with pytest.raises(ValueError):
            c.b(-0.5)
        assert np.allclose(c.b(2.0), [2.0, 2.0])

    def test_sigma(self):
        m = builtin_model("shg3")
        assert np.allclose(m.coeffs.sigma, [2.0, 1.0, 1.0])
        assert np.allclose(builtin_model("cascade3").coeffs.sigma, [1.0, 2.0, 3.0])
        assert np.allclose(builtin_model("uv2", kappa=0.5).coeffs.sigma, [1.0, 2.0])


class TestDeriveCouplings:
    def test_shg3_couplings(self):
        # F = (1/2) conj(z1)(z2^2 + z3^2) -> ((z2^2+z3^2)/2, z1 conj(z2), z1 conj(z3))
        m = builtin_model("shg3")
        z = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(m.eval_fk(z), [6.5, 2.0, 3.0])
        zc = np.array([1.0 + 1j, 2.0 - 1j, 0.5j])
        f = m.eval_fk(zc)
        assert np.allclose(f[0], 0.5 * (zc[1] ** 2 + zc[2] ** 2))
        assert np.allclose(f[1], zc[0] * np.conj(zc[1]))
        assert np.allclose(f[2], zc[0] * np.conj(zc[2]))

    def test_uv2_couplings(self):
        # F = conj(z1)^2 z2 -> (2 conj(z1) z2, z1^2)
        m = builtin_model("uv2", kappa=1.0)
        z = np.array([1.0 + 2j, 0.5 - 1j])
        f = m.eval_fk(z)
        assert np.allclose(f[0], 2.0 * np.conj(z[0]) * z[1])
        assert np.allclose(f[1], z[0] ** 2)
        assert np.allclose(m.eval_fk(np.ones(2, dtype=complex)), [2.0, 1.0])

    def test_empty_potential(self):
        coeffs = CoefficientSet(alpha=np.ones(2), gamma=np.ones(2), beta=np.zeros(2))
        m = ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=2, terms=()))
        z = np.array([1.0 + 1j, 2.0])
        assert np.allclose(m.eval_fk(z), 0.0)
        assert m.eval_F(z) == 0.0

    def test_term_collection(self):
        # duplicate monomials merge; exact cancellation drops the term
        terms = (Monomial(1.0, (0, 1), (2, 0)), Monomial(2.0, (0, 1), (2, 0)))
        pot = TrilinearPotential(l=2, terms=terms)
        fk = derive_fk(pot)
        assert len(fk[0]) == 1 and fk[0][0].coeff == 6.0  # d/dconj(z1): 3 * 2

    def test_wirtinger_oracle(self):
        # independent check: f_k equals 2 d(Re F)/d(conj z_k) by central finite
        # differences of Re F in the real and imaginary directions (5-point
        # stencils are exact on cubics)
        rng = np.random.default_rng(3)
        for name in ("shg3", "cascade3", "uv2"):
            m = builtin_model(name)
            h = 0.1

            def reF(z):
                return np.real(m.eval_F(z))

            for _ in range(20):
                z = rng.normal(size=m.l) + 1j * rng.normal(size=m.l)
                f = m.eval_fk(z)
                for k in range(m.l):
                    def d(direction):
                        zs = [z.copy() for _ in range(4)]
                        for zz, c in zip(zs, (2, 1, -1, -2)):
                            zz[k] += c * direction
                        return (-reF(zs[0]) + 8 * reF(zs[1])
                                - 8 * reF(zs[2]) + reF(zs[3])) / (12 * h)
                    fd = d(h) + 1j * d(1j * h)
                    assert abs(f[k] - fd) < 1e-11


class TestPotentialEval:
    def test_unit_values(self):
        m = builtin_model("uv2", kappa=1.0)
        assert m.eval_F(np.array([1.0, 1.0], dtype=complex)) == pytest.approx(1.0)
        assert m.eval_F(np.array([1j, 1.0])) == pytest.approx(-1.0)

    def test_homogeneity_degree_three(self):
        rng = np.random.default_rng(0)
        for name in ("shg3", "cascade3", "uv2"):
            m = builtin_model(name)
            z = rng.normal(size=(m.l, 40)) + 1j * rng.normal(size=(m.l, 40))
            assert np.allclose(m.eval_F(2.0 * z), 8.0 * m.eval_F(z))
            assert np.allclose(m.eval_fk(3.0 * z), 9.0 * m.eval_fk(z))

    def test_shg3_F(self):
        m = builtin_model("shg3")
        assert m.eval_F(np.ones(3, dtype=complex)) == pytest.approx(1.0)

    def test_length_mismatch(self):
        m = builtin_model("shg3")
        with pytest.raises(ValueError):
            m.eval_F(np.ones(2, dtype=complex))
        with pytest.raises(ValueError):
            m.eval_fk(np.ones(4, dtype=complex))


# F and f_k of each model written out by hand, as functions of one point
# z = (z1, ..., zl) of Python complex numbers; cj is the complex conjugate.
def cj(w):
    return w.conjugate()


def shg3_ref(chi):
    def F(z1, z2, z3):
        return 0.5 * cj(z1) * (chi * z2 * z2 + z3 * z3)

    def f(z1, z2, z3):
        return [0.5 * (chi * z2 * z2 + z3 * z3), chi * z1 * cj(z2), z1 * cj(z3)]

    return F, f


def cascade3_ref(chi):
    def F(z1, z2, z3):
        return 0.5 * z1 * z1 * cj(z2) + chi * z1 * z2 * cj(z3)

    def f(z1, z2, z3):
        return [cj(z1) * z2 + chi * cj(z2) * z3, 0.5 * z1 * z1 + chi * cj(z1) * z3,
                chi * z1 * z2]

    return F, f


def uv2_ref():
    def F(z1, z2):
        return cj(z1) * cj(z1) * z2

    def f(z1, z2):
        return [2.0 * cj(z1) * z2, z1 * z1]

    return F, f


# a file model with complex coefficients and a cube:
# F = a z1^3 + b z1 conj(z1) conj(z2) + c z2 conj(z2)^2
FILE_A, FILE_B, FILE_C = 0.3 - 0.7j, 1.1 + 0.2j, -0.4 + 0.9j
FILE_MODEL = ["l=2", "alpha=1.0,2.0", "gamma=1.0,0.5", "beta=0.0,0.25",
              f"term={FILE_A.real!r},{FILE_A.imag!r};p=3,0;q=0,0",
              f"term={FILE_B.real!r},{FILE_B.imag!r};p=1,0;q=1,1",
              f"term={FILE_C.real!r},{FILE_C.imag!r};p=0,1;q=0,2"]


def file_ref():
    a, b, c = FILE_A, FILE_B, FILE_C

    def F(z1, z2):
        return a * z1 ** 3 + b * z1 * cj(z1) * cj(z2) + c * z2 * cj(z2) ** 2

    def f(z1, z2):
        return [b * z1 * cj(z2) + 3.0 * cj(a) * cj(z1) ** 2 + cj(b) * z1 * z2,
                b * z1 * cj(z1) + 2.0 * c * z2 * cj(z2) + cj(c) * z2 * z2]

    return F, f


class TestCompiledPlans:
    """eval_F / eval_fk against per-point scalar evaluation, rel. tol 1e-14."""

    @staticmethod
    def cases(tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(FILE_MODEL) + "\n")
        return [(builtin_model("shg3"), shg3_ref(1.0)),
                (builtin_model("shg3", chi=0.7), shg3_ref(0.7)),
                (builtin_model("cascade3", chi=1.3), cascade3_ref(1.3)),
                (builtin_model("uv2", kappa=0.5), uv2_ref()),
                (builtin_model("uv2", kappa=1.0), uv2_ref()),
                (read_model_file(path), file_ref())]

    @staticmethod
    def assert_close(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_vectors(self, tmp_path):
        rng = np.random.default_rng(11)
        for m, (F, f) in self.cases(tmp_path):
            for _ in range(5):
                z = rng.normal(size=m.l) + 1j * rng.normal(size=m.l)
                pt = [complex(v) for v in z]
                self.assert_close(m.eval_F(z), F(*pt))
                self.assert_close(m.eval_fk(z), f(*pt))

    def test_fields(self, tmp_path):
        rng = np.random.default_rng(12)
        N = 6
        for m, (F, f) in self.cases(tmp_path):
            z = rng.normal(size=(m.l, N, N)) + 1j * rng.normal(size=(m.l, N, N))
            F_ref = np.empty((N, N), dtype=complex)
            f_ref = np.empty((m.l, N, N), dtype=complex)
            for i in range(N):
                for j in range(N):
                    pt = [complex(v) for v in z[:, i, j]]
                    F_ref[i, j] = F(*pt)
                    f_ref[:, i, j] = f(*pt)
            self.assert_close(m.eval_F(z), F_ref)
            self.assert_close(m.eval_fk(z), f_ref)
            out = np.full((m.l, N, N), np.nan, dtype=complex)
            assert m.eval_fk(z, out=out) is out
            self.assert_close(out, f_ref)

    @pytest.mark.parametrize("model", [builtin_model("shg3"), builtin_model("cascade3"),
                                       builtin_model("uv2")], ids=lambda m: m.name)
    def test_real_input_stays_real(self, model):
        y = np.random.default_rng(14).normal(size=(model.l, 7, 5))
        f = model.eval_fk(y)
        assert f.dtype == np.float64
        assert f.tobytes() == np.real(model.eval_fk(y.astype(complex))).tobytes()
        F = model.eval_F(y)
        assert F.dtype == np.float64
        assert F.tobytes() == np.real(model.eval_F(y.astype(complex))).tobytes()

    def test_complex_coefficients_keep_real_input_complex(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(FILE_MODEL) + "\n")
        m = read_model_file(path)
        y = np.random.default_rng(15).normal(size=(m.l, 9))
        f, f_ref = m.eval_fk(y), m.eval_fk(y.astype(complex))
        assert np.iscomplexobj(f)
        assert np.all(np.imag(f_ref) != 0.0)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(m.eval_F(y), m.eval_F(y.astype(complex)))

    def test_input_untouched(self):
        m = builtin_model("cascade3")
        z = np.random.default_rng(13).normal(size=(3, 8)) + 0j
        keep = z.copy()
        m.eval_fk(z)
        m.eval_F(z)
        assert np.array_equal(z, keep)


class TestIdentities:
    @pytest.mark.parametrize("name", ["shg3", "cascade3", "uv2"])
    def test_mass_balance(self, name):
        assert check_mass_balance(builtin_model(name), 1000) < 1e-12

    def test_mass_balance_real_inputs_exact(self):
        m = builtin_model("shg3")
        y = np.array([0.3, -1.2, 0.7], dtype=complex)
        f = m.eval_fk(y)
        assert np.imag(np.sum(m.coeffs.sigma * f * np.conj(y))) == 0.0

    @pytest.mark.parametrize("name", ["shg3", "cascade3", "uv2"])
    def test_degree_identity(self, name):
        assert check_degree_identity(builtin_model(name), 1000) < 1e-12

    def test_degree_identity_point(self):
        m = builtin_model("shg3")
        z = np.ones(3, dtype=complex)
        lhs = np.real(np.sum(m.eval_fk(z) * np.conj(z)))
        assert lhs == pytest.approx(3.0 * np.real(m.eval_F(z)))
        assert lhs == pytest.approx(3.0)

    def test_lipschitz_bound_sampled(self):
        # |f(z) - f(z')| <= C sum (|z_j|+|z_j'|)|z_m - z_m'| with finite C
        rng = np.random.default_rng(5)
        m = builtin_model("cascade3")
        worst = 0.0
        for _ in range(200):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            zp = rng.normal(size=3) + 1j * rng.normal(size=3)
            num = np.max(np.abs(m.eval_fk(z) - m.eval_fk(zp)))
            den = np.sum(np.abs(z) + np.abs(zp)) * np.sum(np.abs(z - zp))
            worst = max(worst, num / den)
        assert worst < 10.0

    def test_reF_cubic_bound_sampled(self):
        rng = np.random.default_rng(6)
        m = builtin_model("shg3")
        z = rng.normal(size=(3, 500)) + 1j * rng.normal(size=(3, 500))
        ratio = np.abs(np.real(m.eval_F(z))) / np.sum(np.abs(z) ** 3, axis=0)
        assert np.max(ratio) < 10.0


class TestGauge:
    @pytest.mark.parametrize("name", ["shg3", "cascade3", "uv2"])
    def test_builtins_pass(self, name):
        m = builtin_model(name)
        assert check_gauge(m, 1000) < 1e-12
        assert check_gauge(m, 1, strict=True) == 0.0

    def test_counterexample_fails(self):
        m = counterexample_phase()
        assert check_gauge(m, 500) > 0.1
        assert check_gauge(m, 1, strict=True) > 0.1
        # analytic witness: theta = pi/3 at z = (1,1,1) flips Re F entirely
        theta = np.pi / 3.0
        z = np.ones(3, dtype=complex)
        w = np.exp(1j * theta) * z
        assert abs(np.real(m.eval_F(w)) - np.real(m.eval_F(z))) == pytest.approx(2.0)

    def test_zero_potential(self):
        coeffs = CoefficientSet(alpha=np.ones(2), gamma=np.ones(2), beta=np.zeros(2))
        m = ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=2, terms=()))
        assert check_gauge(m, 100) == 0.0

    def test_uv2_off_resonance_fails(self):
        assert check_gauge(builtin_model("uv2", kappa=1.0), 500) > 0.1


class TestRealCone:
    def test_shg3_point(self):
        m = builtin_model("shg3")
        y = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(m.eval_fk(y), [6.5, 2.0, 3.0])
        assert np.imag(m.eval_F(y)) == 0.0

    def test_sampled(self):
        for name in ("shg3", "cascade3", "uv2"):
            im, min_f = check_real_cone(builtin_model(name), 1000)
            assert im < 1e-14
            assert min_f >= 0.0

    def test_zero(self):
        m = builtin_model("uv2")
        assert m.eval_F(np.zeros(2, dtype=complex)) == 0.0
        assert np.all(m.eval_fk(np.zeros(2, dtype=complex)) == 0.0)


class TestSupermodularity:
    def test_builtins(self):
        for name in ("shg3", "cascade3", "uv2"):
            m = builtin_model(name)
            assert check_supermodularity(m, 500) >= 0.0
            assert check_supermodularity(m, 1, strict=True) >= 0.0

    def test_symbolic_cross_partials(self):
        from qnls.nonlinearity import supermodular_cross_partials
        cross = dict(((i, j), terms) for i, j, terms in
                     supermodular_cross_partials(builtin_model("shg3")))
        # d^2/dy1 dy2 of y1(y2^2+y3^2)/2 = y2
        assert cross[(0, 1)] == [(1.0, (0, 1, 0))]
        assert cross[(0, 2)] == [(1.0, (0, 0, 1))]
        assert cross[(1, 2)] == []
        cross_uv = dict(((i, j), terms) for i, j, terms in
                        supermodular_cross_partials(builtin_model("uv2")))
        assert cross_uv[(0, 1)] == [(2.0, (1, 0))]  # 2 y1

    def test_counterexample(self):
        m = counterexample_supermodular()
        assert check_supermodularity(m, 500) < -0.1
        assert check_supermodularity(m, 1, strict=True) < 0.0


class TestValidateModel:
    @pytest.mark.parametrize("name", ["shg3", "cascade3", "uv2"])
    def test_builtins_pass_everything(self, name):
        rep = validate_model(builtin_model(name), n_samples=1000, seed=0)
        assert rep.passed, rep.lines()
        assert rep.max_deviation() < 1e-10

    def test_counterexample_flagged(self):
        rep = validate_model(counterexample_phase(), n_samples=500)
        assert not rep.checks["gauge"].passed
        assert not rep.checks["H4"].passed
        assert rep.checks["H5"].passed  # still homogeneous

    def test_report_lines(self):
        rep = validate_model(builtin_model("uv2"), n_samples=100)
        assert len(rep.lines()) == len(rep.checks)


class TestModelSpecInvariant:
    def test_fk_must_match_derivation(self):
        m = builtin_model("uv2")
        with pytest.raises(ValueError):
            ModelSpec(coeffs=m.coeffs, potential=m.potential,
                      fk=((), ()))  # not the Wirtinger derivative

    def test_component_count_mismatch(self):
        coeffs = CoefficientSet(alpha=np.ones(2), gamma=np.ones(2), beta=np.zeros(2))
        pot = TrilinearPotential(l=3, terms=())
        with pytest.raises(ValueError):
            ModelSpec(coeffs=coeffs, potential=pot)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        m = builtin_model("cascade3", chi=0.75, beta=(1.0, 0.5, 0.0))
        path = tmp_path / "model.txt"
        write_model_file(m, path)
        back = read_model_file(path)
        assert back.l == 3
        assert np.allclose(back.coeffs.alpha, m.coeffs.alpha)
        assert np.allclose(back.coeffs.beta, m.coeffs.beta)
        rng = np.random.default_rng(1)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.allclose(back.eval_fk(z), m.eval_fk(z))

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_model_lines(["l=2", "alpha=1,1", "gamma=1,1"])  # beta missing
        with pytest.raises(ValueError):
            parse_model_lines(["l=2", "alpha=1,1", "gamma=1,1", "beta=0,0",
                               "term=1.0,0.0;p=0,1"])  # q missing

    @pytest.mark.parametrize("line,field", [
        ("term=1.0;p=3;q=0", "term"),             # coefficient without an imaginary part
        ("term=1.0,0.0;p=x;q=0,0", "p"),          # exponent that is not an integer
        ("alpha=1,", "alpha"),                    # trailing comma
    ])
    def test_malformed_file_names_file_and_field(self, tmp_path, line, field):
        path = tmp_path / "model.txt"
        good = ["l=2", "alpha=1,1", "gamma=1,1", "beta=0,0", "term=1.0,0.0;p=0,1;q=2,0"]
        key = line.partition("=")[0]
        lines = [ln for ln in good if not ln.startswith(key + "=")] + [line]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_model_file(path)
        assert type(info.value) is ValueError
        assert str(path) in str(info.value)
        assert f"{field}=" in str(info.value)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_model("nope")
