"""Trilinear interaction potentials and the quadratic couplings they generate.

A model is defined by a degree-3 polynomial potential F in the field
components (z_1, ..., z_l) and their conjugates, together with the linear
coefficients (alpha_k, gamma_k, beta_k) of the dispersive system

    i alpha_k d_t u_k + gamma_k Lap u_k - beta_k u_k = -f_k(u_1, ..., u_l).

The coupling terms are the Wirtinger gradient of the real part of F,

    f_k = dF/d(conj z_k) + conj(dF/dz_k) = 2 d(Re F)/d(conj z_k),

which for a degree-3 potential is a homogeneous degree-2 polynomial in
(z, conj z).  Because F is stored as an explicit monomial list, the f_k are
computed symbolically (term shifting, no differentiation error) and the
structural hypotheses on the model can be checked either exactly (per
monomial) or by seeded random sampling on the unit polydisc.

For evaluation, every term list is compiled once into a product plan: each
monomial becomes its coefficient and the indices of its factors in the
stacked operand [z; conj z], so z_1^2 conj(z_3) reads (c, (0, 0, l + 2)).
The potential and the f_k are compiled when the model is built, each into
a Program that also records which components appear conjugated and whether
a scratch array is needed, and one executor runs a Program's plans with no
further set-up, writing each result into a preallocated array.

Checked properties, in the order they are reported:

    H1   f_k(0) = 0
    H2   the Wirtinger derivatives of f_k are Lipschitz (quadratic growth)
    H3   f_k is the Wirtinger gradient of Re F (finite-difference check)
    H4   Re F is invariant under the coupled phase action e^{i sigma_k theta}
    H5   F is homogeneous of degree 3
    H6   |Re F(z)| <= F(|z_1|, ..., |z_l|)
    H7   F real on the reals, f_k >= 0 on the positive cone
    H8   F super-modular on the positive cone (cross partials >= 0)
    gauge            f_k(e^{i sigma_1 theta} z_1, ...) = e^{i sigma_k theta} f_k(z)
    mass_balance     Im sum_k sigma_k f_k(z) conj(z_k) = 0
    degree_identity  Re sum_k f_k(z) conj(z_k) = 3 Re F(z)

with sigma_k = alpha_k / gamma_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DEFAULT_SAMPLES = 1000
DEFAULT_TOL = 1e-10


class Term(NamedTuple):
    """One monomial coeff * prod z_j^powers_j * prod conj(z_j)^conj_powers_j."""

    coeff: complex
    powers: tuple[int, ...]
    conj_powers: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.powers) + sum(self.conj_powers)


def _collect(terms: list[Term]) -> list[Term]:
    """Merge terms with identical exponent patterns and drop exact zeros."""
    acc: dict[tuple, complex] = {}
    for t in terms:
        key = (t.powers, t.conj_powers)
        acc[key] = acc.get(key, 0.0) + complex(t.coeff)
    out = [Term(c, p, q) for (p, q), c in acc.items() if abs(c) > 0.0]
    out.sort(key=lambda t: (t.powers, t.conj_powers))
    return out


Plan = tuple[tuple[float | complex, tuple[int, ...]], ...]


class Program(NamedTuple):
    """Product plans compiled together, with what their executor needs to
    know about them worked out once: the components that appear conjugated,
    whether some plan sums several monomials (and so needs a scratch
    array), and every coefficient (for np.result_type)."""

    plans: tuple[Plan, ...]
    conjugated: tuple[int, ...]
    needs_scratch: bool
    coefficients: tuple[float | complex, ...]


def compile_terms(terms: list[Term]) -> Plan:
    """Product plan of a term list: (coeff, factors) per monomial.

    factors lists indices into the stacked operand [z; conj z] in ascending
    order, one per unit of degree: z_j^p contributes p copies of j and
    conj(z_j)^q contributes q copies of l + j.  Every monomial compiled
    here has degree 2 (the f_k) or 3 (F), so it has at least two factors.
    A coefficient with zero imaginary part is stored as a float.
    """
    plan = []
    for coeff, powers, conj_powers in terms:
        l = len(powers)
        factors = [j for j, p in enumerate(powers) for _ in range(p)]
        factors += [l + j for j, q in enumerate(conj_powers) for _ in range(q)]
        coeff = complex(coeff)
        plan.append((coeff.real if coeff.imag == 0 else coeff, tuple(factors)))
    return tuple(plan)


def compile_program(l: int, term_lists) -> Program:
    """Compile one plan per term list over l components into a Program."""
    plans = tuple(compile_terms(terms) for terms in term_lists)
    conjugated = sorted({i - l for plan in plans for _, factors in plan for i in factors if i >= l})
    return Program(plans, tuple(conjugated), any(len(p) > 1 for p in plans),
                   tuple(coeff for plan in plans for coeff, _ in plan))


def eval_terms(program: Program, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate compiled plans at z (shape (l,) or (l, ...) for gridded fields).

    Row m of the result, shape (len(plans),) + z.shape[1:], holds plan m.
    Its dtype is np.result_type of z and every plan coefficient: real z and
    real coefficients give a real result, any complex one a complex result.
    Only the components that appear conjugated are conjugated.  Each
    monomial is multiplied out left to right over its factors and then
    scaled by its coefficient (skipped when it is 1), and the monomials are
    summed in plan order, all through ufuncs writing into out or one
    scratch array.
    """
    l = z.shape[0]
    if out is None:
        dtype = np.result_type(z, *program.coefficients)
        out = np.empty((len(program.plans),) + z.shape[1:], dtype=dtype)
    operands = list(z) + [None] * l
    for j in program.conjugated:
        operands[l + j] = np.conj(z[j])
    scratch = np.empty(z.shape[1:], dtype=out.dtype) if program.needs_scratch else None
    for m, plan in enumerate(program.plans):
        row = out[m, ...]
        if not plan:
            row[...] = 0.0
        for n, (coeff, factors) in enumerate(plan):
            dest = scratch if n else row
            np.multiply(operands[factors[0]], operands[factors[1]], out=dest)
            for i in factors[2:]:
                np.multiply(dest, operands[i], out=dest)
            if coeff != 1.0:
                np.multiply(dest, coeff, out=dest)
            if n:
                np.add(row, dest, out=row)
    return out


@dataclass(frozen=True)
class Monomial:
    """Degree-3 monomial of the potential.  coeff != 0 and total degree 3."""

    coeff: complex
    powers: tuple[int, ...]
    conj_powers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))
        object.__setattr__(self, "conj_powers", tuple(int(q) for q in self.conj_powers))
        if len(self.powers) != len(self.conj_powers):
            raise ValueError("powers and conj_powers must have the same length")
        if any(p < 0 for p in self.powers + self.conj_powers):
            raise ValueError("exponents must be non-negative")
        if sum(self.powers) + sum(self.conj_powers) != 3:
            raise ValueError("potential monomials must have total degree 3")
        if self.coeff == 0:
            raise ValueError("zero terms are dropped, not stored")

    def as_term(self) -> Term:
        return Term(self.coeff, self.powers, self.conj_powers)


@dataclass(frozen=True)
class TrilinearPotential:
    """Degree-3 potential F as an explicit monomial list over l components."""

    l: int
    terms: tuple[Monomial, ...]

    program: Program = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for m in self.terms:
            if len(m.powers) != self.l:
                raise ValueError("all terms must have the component count l")
        object.__setattr__(self, "program",
                           compile_program(self.l, [[m.as_term() for m in self.terms]]))

    def __call__(self, z) -> np.ndarray | complex:
        return self.eval(z)

    def eval(self, z) -> np.ndarray | complex:
        """F(z) for a length-l vector or (l, ...) field stack; real z and
        real coefficients give a real result (see eval_terms)."""
        z = np.asarray(z)
        if z.shape[0] != self.l:
            raise ValueError(f"expected {self.l} components, got {z.shape[0]}")
        return eval_terms(self.program, z)[0]

    def real_restriction(self) -> list[tuple[float, tuple[int, ...]]]:
        """F as a real polynomial of the real vector y (valid under H7)."""
        acc: dict[tuple[int, ...], complex] = {}
        for m in self.terms:
            key = tuple(p + q for p, q in zip(m.powers, m.conj_powers))
            acc[key] = acc.get(key, 0.0) + m.coeff
        return [(c.real, mono) for mono, c in sorted(acc.items()) if abs(c) > 0.0]


def derive_fk(potential: TrilinearPotential) -> list[list[Term]]:
    """Wirtinger-derive the couplings f_k = dF/d(conj z_k) + conj(dF/dz_k).

    Differentiation acts per monomial: d/d(conj z_k) lowers conj_powers[k],
    and the conjugated holomorphic derivative swaps the exponent roles with a
    conjugated coefficient.  Each f_k comes out as a collected degree-2 term
    list.
    """
    l = potential.l
    fk: list[list[Term]] = []
    for k in range(l):
        terms: list[Term] = []
        for m in potential.terms:
            if m.conj_powers[k] > 0:
                q = list(m.conj_powers)
                q[k] -= 1
                terms.append(Term(m.coeff * m.conj_powers[k], m.powers, tuple(q)))
            if m.powers[k] > 0:
                # conj(d/dz_k of c z^p conj(z)^q) = conj(c) p_k z^q conj(z)^(p - e_k)
                p = list(m.powers)
                p[k] -= 1
                terms.append(Term(np.conj(m.coeff) * m.powers[k], m.conj_powers, tuple(p)))
        fk.append(_collect(terms))
    return fk


@dataclass(frozen=True)
class CoefficientSet:
    """Linear coefficients of the system; alpha_k, gamma_k > 0 and beta_k >= 0."""

    alpha: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if not (alpha.shape == gamma.shape == beta.shape) or alpha.ndim != 1:
            raise ValueError("alpha, gamma, beta must be 1-d arrays of equal length")
        if np.any(alpha <= 0) or np.any(gamma <= 0):
            raise ValueError("alpha_k and gamma_k must be positive")
        if np.any(beta < 0):
            raise ValueError("beta_k must be non-negative")
        for name, arr in (("alpha", alpha), ("gamma", gamma), ("beta", beta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def l(self) -> int:
        return self.alpha.size

    @property
    def sigma(self) -> np.ndarray:
        """Phase weights sigma_k = alpha_k / gamma_k of the coupled gauge action."""
        return self.alpha / self.gamma

    def omega_floor(self) -> float:
        """Frequencies below this leave some b_k non-positive."""
        return float(np.max(-self.beta * self.gamma / self.alpha**2))

    def b(self, omega: float) -> np.ndarray:
        """Zero-order coefficients b_k = alpha_k^2 omega / gamma_k + beta_k."""
        b = self.alpha**2 * omega / self.gamma + self.beta
        if np.any(b <= 0):
            raise ValueError(
                f"omega={omega} is not admissible; need omega > {self.omega_floor()}"
            )
        return b


@dataclass(frozen=True)
class ModelSpec:
    """Complete system definition: coefficients, potential, derived couplings."""

    coeffs: CoefficientSet
    potential: TrilinearPotential
    fk: tuple = field(default=None)  # derived; filled in __post_init__
    name: str = "custom"
    fk_program: Program = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coeffs.l != self.potential.l:
            raise ValueError("coefficient count and potential component count differ")
        derived = tuple(tuple(ts) for ts in derive_fk(self.potential))
        if self.fk is not None and tuple(tuple(ts) for ts in self.fk) != derived:
            raise ValueError("fk must be the Wirtinger derivative of the potential")
        object.__setattr__(self, "fk", derived)
        object.__setattr__(self, "fk_program", compile_program(self.l, derived))

    @property
    def l(self) -> int:
        return self.coeffs.l

    def eval_F(self, z) -> np.ndarray | complex:
        return self.potential.eval(z)

    def eval_fk(self, z, out: np.ndarray | None = None) -> np.ndarray:
        """All couplings stacked: shape (l,) on vectors, (l, ...) on fields.

        Real z and a model whose coefficients are all real give a real
        result; a complex z or any complex coefficient gives a complex one.
        With out (the shape of z, not overlapping z, of a dtype that holds
        the result) the couplings are written there and out is returned.
        """
        z = np.asarray(z)
        if z.shape[0] != self.l:
            raise ValueError(f"expected {self.l} components, got {z.shape[0]}")
        return eval_terms(self.fk_program, z, out)


# ---------------------------------------------------------------------------
# sampling helpers


def _sample_polydisc(rng: np.random.Generator, l: int, n: int) -> np.ndarray:
    """n points of the unit polydisc in C^l, uniform per component, shape (n, l)."""
    r = np.sqrt(rng.uniform(size=(n, l)))
    phi = rng.uniform(0.0, 2 * np.pi, size=(n, l))
    return r * np.exp(1j * phi)


@dataclass
class CheckResult:
    passed: bool
    deviation: float
    detail: str = ""


@dataclass
class HypothesisReport:
    """Outcome of the structural checks, one entry per hypothesis."""

    checks: dict[str, CheckResult]
    n_samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, c in self.checks.items():
            status = "pass" if c.passed else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            out.append(f"{name:16s} {status}  deviation={c.deviation:.3e}{extra}")
        return out


def check_gauge(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                strict: bool = False) -> float:
    """Max deviation from the coupled phase equivariance of f_k and Re F.

    In strict mode the per-monomial criterion is used instead of sampling:
    every monomial of Re F whose phase weight sum_j sigma_j (p_j - q_j) is
    nonzero must cancel against the mirrored monomial with conjugate
    coefficient.
    """
    sigma = model.coeffs.sigma
    if strict:
        groups: dict[tuple, complex] = {}
        for m in model.potential.terms:
            groups[(m.powers, m.conj_powers)] = groups.get((m.powers, m.conj_powers), 0.0) + m.coeff
        dev = 0.0
        for (p, q), c in groups.items():
            w = float(np.dot(sigma, np.array(p) - np.array(q)))
            if abs(w) < 1e-12:
                continue
            mirror = np.conj(groups.get((q, p), 0.0))
            dev = max(dev, abs(c + mirror))
        return dev
    rng = np.random.default_rng(seed)
    z = _sample_polydisc(rng, model.l, n_samples).T
    theta = rng.uniform(0.0, 2 * np.pi, size=n_samples)
    phase = np.exp(1j * sigma[:, None] * theta[None, :])
    fz = model.eval_fk(z)
    fw = model.eval_fk(phase * z)
    dev = float(np.max(np.abs(fw - phase * fz))) if model.l else 0.0
    dev_F = float(np.max(np.abs(
        np.real(model.eval_F(phase * z)) - np.real(model.eval_F(z)))))
    return max(dev, dev_F)


def check_mass_balance(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Max |Im sum_k sigma_k f_k(z) conj(z_k)| over random samples."""
    rng = np.random.default_rng(seed)
    z = _sample_polydisc(rng, model.l, n_samples).T
    f = model.eval_fk(z)
    s = np.tensordot(model.coeffs.sigma, f * np.conj(z), axes=(0, 0))
    return float(np.max(np.abs(np.imag(s))))


def check_degree_identity(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Max |Re sum_k f_k(z) conj(z_k) - 3 Re F(z)| (Euler identity, degree 3)."""
    rng = np.random.default_rng(seed)
    z = _sample_polydisc(rng, model.l, n_samples).T
    f = model.eval_fk(z)
    lhs = np.real(np.sum(f * np.conj(z), axis=0))
    rhs = 3.0 * np.real(model.eval_F(z))
    return float(np.max(np.abs(lhs - rhs)))


def check_real_cone(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0):
    """(max |Im F(y)| on real y, min_k f_k(y) on the positive cone)."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, size=(model.l, n_samples)).astype(complex)
    im_F = float(np.max(np.abs(np.imag(model.eval_F(y)))))
    im_f = float(np.max(np.abs(np.imag(model.eval_fk(y)))))
    yp = rng.uniform(0.0, 1.0, size=(model.l, n_samples)).astype(complex)
    min_f = float(np.min(np.real(model.eval_fk(yp))))
    return max(im_F, im_f), min_f


def check_modulus_bound(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Max violation of |Re F(z)| <= F(|z_1|, ..., |z_l|) over random samples."""
    rng = np.random.default_rng(seed)
    z = _sample_polydisc(rng, model.l, n_samples).T
    lhs = np.abs(np.real(model.eval_F(z)))
    rhs = np.real(model.eval_F(np.abs(z).astype(complex)))
    return float(np.max(lhs - rhs))


def supermodular_cross_partials(model: ModelSpec) -> list[tuple[int, int, list[tuple[float, tuple[int, ...]]]]]:
    """Symbolic cross partials d^2 F / dy_i dy_j (i < j) of the real restriction."""
    restr = model.potential.real_restriction()
    out = []
    for i in range(model.l):
        for j in range(i + 1, model.l):
            acc: dict[tuple[int, ...], float] = {}
            for c, mono in restr:
                if mono[i] >= 1 and mono[j] >= 1:
                    new = list(mono)
                    new[i] -= 1
                    new[j] -= 1
                    key = tuple(new)
                    acc[key] = acc.get(key, 0.0) + c * mono[i] * mono[j]
            out.append((i, j, [(c, m) for m, c in sorted(acc.items())]))
    return out


def check_supermodularity(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                          strict: bool = False) -> float:
    """Min cross partial of F over the positive cone (negative means failure).

    The cross partials of a degree-3 potential are linear in y, so in strict
    mode non-negativity on the cone reduces to non-negativity of every
    polynomial coefficient.
    """
    cross = supermodular_cross_partials(model)
    if not cross:
        return 0.0  # single component, nothing to check
    if strict:
        coeffs = [c for _, _, terms in cross for c, _ in terms]
        return float(min(coeffs)) if coeffs else 0.0
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, size=(model.l, n_samples))
    worst = np.inf
    for _, _, terms in cross:
        if not terms:
            continue
        val = np.zeros(n_samples)
        for c, mono in terms:
            term = np.full(n_samples, c)
            for jj, m in enumerate(mono):
                if m:
                    term = term * y[jj] ** m
            val += term
        worst = min(worst, float(np.min(val)))
    return 0.0 if worst is np.inf else worst


def _wirtinger_fd(model: ModelSpec, z: np.ndarray, k: int, h: float = 0.05) -> np.ndarray:
    """2 d(Re F)/d(conj z_k) by 5-point finite differences (exact on cubics)."""

    def reF(zz):
        return np.real(model.eval_F(zz))

    def shift(delta):
        zz = z.copy()
        zz[k] = zz[k] + delta
        return zz

    # five-point first-derivative stencil in the real and imaginary directions
    def d(direction):
        return (-reF(shift(2 * direction)) + 8 * reF(shift(direction))
                - 8 * reF(shift(-direction)) + reF(shift(-2 * direction))) / (12 * h)

    return d(h) + 1j * d(1j * h)


def validate_model(model: ModelSpec, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                   tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Run all hypothesis checks and collect pass/fail with max deviations."""
    rng = np.random.default_rng(seed)
    checks: dict[str, CheckResult] = {}

    z0 = np.zeros(model.l, dtype=complex)
    dev = float(np.max(np.abs(model.eval_fk(z0)))) if model.l else 0.0
    checks["H1"] = CheckResult(dev <= tol, dev, "f_k(0)")

    # H2: quadratic growth; the sampled constant is informative, structure decides
    z = _sample_polydisc(rng, model.l, n_samples).T
    f = model.eval_fk(z)
    denom = np.sum(np.abs(z) ** 2, axis=0)
    growth = float(np.max(np.abs(f) / denom[None, :])) if model.potential.terms else 0.0
    structural = all(t.degree == 2 for ts in model.fk for t in ts)
    checks["H2"] = CheckResult(structural, 0.0, f"quadratic growth constant {growth:.3g}")

    n_fd = min(50, n_samples)
    zs = _sample_polydisc(rng, model.l, n_fd)
    dev = 0.0
    for zz in zs:
        zz = zz.copy()
        fk = model.eval_fk(zz)
        for k in range(model.l):
            dev = max(dev, float(abs(fk[k] - _wirtinger_fd(model, zz, k))))
    checks["H3"] = CheckResult(dev <= max(tol, 1e-10), dev, "gradient structure (FD)")

    # H4 and the gauge identity are one check: f_k equivariant, Re F invariant
    gauge_dev = check_gauge(model, n_samples, seed=seed + 1)
    checks["H4"] = CheckResult(gauge_dev <= tol, gauge_dev, "Re F phase invariance")

    lam = 2.0
    z = _sample_polydisc(rng, model.l, n_samples).T
    dev = float(np.max(np.abs(model.eval_F(lam * z) - lam**3 * model.eval_F(z))))
    checks["H5"] = CheckResult(dev <= tol * max(1.0, lam**3), dev, "degree-3 homogeneity")

    dev = check_modulus_bound(model, n_samples, seed=seed + 2)
    checks["H6"] = CheckResult(dev <= tol, max(dev, 0.0), "|Re F| <= F(|z|)")

    im, min_f = check_real_cone(model, n_samples, seed=seed + 3)
    ok = im <= tol and min_f >= -tol
    checks["H7"] = CheckResult(ok, max(im, -min_f, 0.0),
                               f"Im on reals {im:.2e}, min f on cone {min_f:.2e}")

    min_cross = check_supermodularity(model, n_samples, seed=seed + 4)
    checks["H8"] = CheckResult(min_cross >= -tol, max(-min_cross, 0.0),
                               f"min cross partial {min_cross:.2e}")

    checks["gauge"] = CheckResult(gauge_dev <= tol, gauge_dev)
    dev = check_mass_balance(model, n_samples, seed=seed + 6)
    checks["mass_balance"] = CheckResult(dev <= tol, dev)
    dev = check_degree_identity(model, n_samples, seed=seed + 7)
    checks["degree_identity"] = CheckResult(dev <= tol, dev)

    return HypothesisReport(checks=checks, n_samples=n_samples, tol=tol)


# ---------------------------------------------------------------------------
# builtin models


def _mono(coeff, p, q) -> Monomial:
    return Monomial(coeff, tuple(p), tuple(q))


def builtin_model(name: str, beta=None, chi: float = 1.0, kappa: float = 0.5) -> ModelSpec:
    """Construct one of the reference three-wave / two-wave systems.

    shg3      l=3, F = (1/2) conj(z1) (chi z2^2 + z3^2), alpha=(2,1,1)
    cascade3  l=3, F = (1/2) z1^2 conj(z2) + chi z1 z2 conj(z3), alpha=(1,2,3)
    uv2       l=2, F = conj(z1)^2 z2, alpha=(1,1), gamma=(1,kappa)

    chi defaults to 1, the value at which shg3/cascade3 coincide with the
    classical second-harmonic and cascading systems.  uv2 satisfies the
    coupled gauge symmetry only at the mass-resonant kappa = 1/2, which is
    the default; other kappa values still define a valid elliptic problem.
    beta defaults to zeros (the parameter set whose ground states enter the
    global-existence thresholds).
    """
    if name == "shg3":
        terms = [_mono(0.5 * chi, (0, 2, 0), (1, 0, 0)),
                 _mono(0.5, (0, 0, 2), (1, 0, 0))]
        alpha, gamma = (2.0, 1.0, 1.0), (1.0, 1.0, 1.0)
    elif name == "cascade3":
        terms = [_mono(0.5, (2, 0, 0), (0, 1, 0)),
                 _mono(chi, (1, 1, 0), (0, 0, 1))]
        alpha, gamma = (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)
    elif name == "uv2":
        terms = [_mono(1.0, (0, 1), (2, 0))]
        alpha, gamma = (1.0, 1.0), (1.0, float(kappa))
    else:
        raise ValueError(f"unknown builtin model {name!r}")
    l = len(alpha)
    if beta is None:
        beta = np.zeros(l)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (l,)).copy()
    coeffs = CoefficientSet(alpha=np.array(alpha), gamma=np.array(gamma), beta=beta)
    return ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=l, terms=tuple(terms)),
                     name=name)


# ---------------------------------------------------------------------------
# model definition files
#
# flat text format:
#   l=<int>
#   alpha=<csv>
#   gamma=<csv>
#   beta=<csv>
#   term=<re>,<im>;p=<csv>;q=<csv>      (one line per monomial)


def model_lines(model: ModelSpec) -> list[str]:
    lines = [f"l={model.l}"]
    for key in ("alpha", "gamma", "beta"):
        vals = getattr(model.coeffs, key)
        lines.append(f"{key}=" + ",".join(repr(float(v)) for v in vals))
    for m in model.potential.terms:
        p = ",".join(str(v) for v in m.powers)
        q = ",".join(str(v) for v in m.conj_powers)
        lines.append(f"term={m.coeff.real!r},{m.coeff.imag!r};p={p};q={q}")
    return lines


def parse_fields(pairs, spec: dict) -> dict:
    """{key: parse(value)} for each (key, parse) of spec, from "key=value"
    strings (a later pair wins).  A pair without "=", a missing field or a
    value that does not parse raises ValueError naming the field."""
    fields = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"field {pair!r} is not key=value")
        fields[key.strip()] = value.strip()
    out = {}
    for key, parse in spec.items():
        if key not in fields:
            raise ValueError(f"missing field {key!r}")
        try:
            out[key] = parse(fields[key])
        except ValueError as exc:
            raise ValueError(f"bad field {key}={fields[key]!r}: {exc}") from None
    return out


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _term(value: str) -> Monomial:
    """The monomial of a term line's value "<re>,<im>;p=<csv>;q=<csv>"."""
    coeff, *exponents = value.split(";")
    re_im = _floats(coeff)
    if len(re_im) != 2:
        raise ValueError(f"coefficient {coeff!r} is not <re>,<im>")
    pq = parse_fields(exponents, {"p": _ints, "q": _ints})
    return Monomial(complex(*re_im), pq["p"], pq["q"])


def parse_model_lines(lines) -> ModelSpec:
    """Model from the lines of a model file.  A malformed line, a missing
    field or a value that does not parse raises ValueError naming the field."""
    pairs, terms = [], []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if key.strip() != "term":
            pairs.append(line)
            continue
        try:
            terms.append(_term(value))
        except ValueError as exc:
            raise ValueError(f"bad field term={value.strip()!r}: {exc}") from None
    h = parse_fields(pairs, {"l": int, "alpha": _floats, "gamma": _floats, "beta": _floats})
    coeffs = CoefficientSet(alpha=np.array(h["alpha"]), gamma=np.array(h["gamma"]),
                            beta=np.array(h["beta"]))
    if coeffs.l != h["l"]:
        raise ValueError(f"bad field l={h['l']}: alpha, gamma and beta have {coeffs.l} values")
    return ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=h["l"], terms=tuple(terms)),
                     name="file")


def write_model_file(model: ModelSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(model_lines(model)) + "\n")


def read_model_file(path) -> ModelSpec:
    """Read a model file; a malformed one raises ValueError naming the file
    and the field."""
    with open(path) as fh:
        try:
            return parse_model_lines(fh.readlines())
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from None
