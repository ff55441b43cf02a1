"""The model type: a trilinear potential and the quadratic couplings it generates.

A model (ModelSpec) is the linear coefficients (alpha_k, gamma_k, beta_k)
together with a degree-3 polynomial potential F in the field components
(z_1, ..., z_l) and their conjugates, stored as its list of monomials
(Term), of the dispersive system

    i alpha_k d_t u_k + gamma_k Lap u_k - beta_k u_k = -f_k(u_1, ..., u_l).

The coupling terms are the Wirtinger gradient of the real part of F,

    f_k = dF/d(conj z_k) + conj(dF/dz_k) = 2 d(Re F)/d(conj z_k),

which for a degree-3 potential is a homogeneous degree-2 polynomial in
(z, conj z).  Because F is stored as an explicit monomial list, the f_k are
computed symbolically (term shifting, no differentiation error).  H8 is
decided exactly from the monomials.  The other checks run on one seeded
draw of points on the unit polydisc: f_k and F are evaluated there once,
and each check adds only the points its property needs.

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

SAMPLES = 1000
TOL = 1e-10


class Term(NamedTuple):
    """One monomial coeff * prod z_j^powers_j * prod conj(z_j)^conj_powers_j,
    of the potential F (degree 3) or of a coupling f_k (degree 2)."""

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
    Only the components that appear conjugated are conjugated, and only
    when z is complex (a real component is its own conjugate).  Each
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
        operands[l + j] = np.conj(z[j]) if np.iscomplexobj(z) else z[j]
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


def derive_fk(l: int, terms) -> list[list[Term]]:
    """Wirtinger-derive the couplings f_k = dF/d(conj z_k) + conj(dF/dz_k)
    of the potential with these terms over l components.

    Differentiation acts per monomial: d/d(conj z_k) lowers conj_powers[k],
    and the conjugated holomorphic derivative swaps the exponent roles with a
    conjugated coefficient.  Each f_k comes out as a collected degree-2 term
    list.
    """
    fk: list[list[Term]] = []
    for k in range(l):
        out: list[Term] = []
        for m in terms:
            if m.conj_powers[k] > 0:
                q = list(m.conj_powers)
                q[k] -= 1
                out.append(Term(m.coeff * m.conj_powers[k], m.powers, tuple(q)))
            if m.powers[k] > 0:
                # conj(d/dz_k of c z^p conj(z)^q) = conj(c) p_k z^q conj(z)^(p - e_k)
                p = list(m.powers)
                p[k] -= 1
                out.append(Term(np.conj(m.coeff) * m.powers[k], m.conj_powers, tuple(p)))
        fk.append(_collect(out))
    return fk


@dataclass(frozen=True)
class CoefficientSet:
    """Linear coefficients of the system; alpha_k, gamma_k > 0 and beta_k >= 0,
    all finite."""

    alpha: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if not (alpha.shape == gamma.shape == beta.shape) or alpha.ndim != 1:
            raise ValueError("alpha, gamma, beta must be 1-d arrays of equal length")
        if alpha.size == 0:
            raise ValueError("alpha, gamma, beta need at least one component")
        if np.any(alpha <= 0) or np.any(gamma <= 0):
            raise ValueError("alpha_k and gamma_k must be positive")
        if np.any(beta < 0):
            raise ValueError("beta_k must be non-negative")
        for name, arr in (("alpha", alpha), ("gamma", gamma), ("beta", beta)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"bad field {name}={','.join(map(repr, arr.tolist()))}: "
                                 "coefficients must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def l(self) -> int:
        return self.alpha.size

    @property
    def sigma(self) -> np.ndarray:
        """Phase weights sigma_k = alpha_k / gamma_k of the coupled gauge action."""
        return self.alpha / self.gamma

    @property
    def charge_weights(self) -> np.ndarray:
        """Charge weights alpha_k^2 / gamma_k: Q = sum_k (alpha_k^2/gamma_k) ||u_k||^2."""
        return self.alpha**2 / self.gamma

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
    """Complete system definition: the coefficients, and the monomials of the
    potential F over their l components.  F and the couplings f_k derived
    from it are compiled once, here.

    Each term must have l integral exponents on each side, none negative,
    total degree 3 and a finite non-zero coefficient; a term that has not raises
    ValueError naming it as a model-file term line.  Terms are stored with
    a complex coefficient and int exponents.
    """

    coeffs: CoefficientSet
    terms: tuple[Term, ...]
    name: str = "custom"
    fk: tuple[tuple[Term, ...], ...] = field(default=(), init=False)
    F_program: Program = field(default=None, init=False, repr=False, compare=False)
    fk_program: Program = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        l = self.l
        terms = []
        for c, p, q in self.terms:
            t = Term(complex(c), tuple(p), tuple(q))
            if len(t.powers) != l or len(t.conj_powers) != l:
                why = f"a term needs {l} exponents on each side"
            elif not all(float(e).is_integer() for e in t.powers + t.conj_powers):
                why = "exponents must be integers"
            elif any(e < 0 for e in t.powers + t.conj_powers):
                why = "exponents must be non-negative"
            elif t.degree != 3:
                why = "potential monomials must have total degree 3"
            elif t.coeff == 0:
                why = "zero terms are dropped, not stored"
            elif not np.isfinite(t.coeff):
                why = "coefficients must be finite"
            else:
                terms.append(Term(t.coeff, tuple(map(int, t.powers)),
                                  tuple(map(int, t.conj_powers))))
                continue
            raise ValueError(f"bad field {_term_line(t)}: {why}")
        fk = tuple(tuple(ts) for ts in derive_fk(l, terms))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "fk", fk)
        object.__setattr__(self, "F_program", compile_program(l, [terms]))
        object.__setattr__(self, "fk_program", compile_program(l, fk))

    @property
    def l(self) -> int:
        return self.coeffs.l

    def eval_F(self, z) -> np.ndarray | complex:
        """F(z) for a length-l vector or (l, ...) field stack; real z and
        real coefficients give a real result (see eval_terms)."""
        z = np.asarray(z)
        if z.shape[0] != self.l:
            raise ValueError(f"expected {self.l} components, got {z.shape[0]}")
        return eval_terms(self.F_program, z)[0]

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
# hypothesis checks


@dataclass
class CheckResult:
    passed: bool
    deviation: float
    detail: str = ""


@dataclass
class HypothesisReport:
    """Outcome of the structural checks, one entry per hypothesis."""

    checks: dict[str, CheckResult]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks.values())


def check_supermodularity(model: ModelSpec) -> float:
    """Smallest coefficient of the cross partials d^2 F / dy_i dy_j (i < j)
    of F on real y, where each term c y^(p + q) counts with Re c (valid
    under H7); 0.0 when there are none, and negative means failure.  The
    cross partials of a degree-3 potential are linear in y with no constant,
    so they are non-negative on the positive cone exactly when every
    coefficient is."""
    restricted: dict[tuple[int, ...], complex] = {}
    for t in model.terms:
        mono = tuple(p + q for p, q in zip(t.powers, t.conj_powers))
        restricted[mono] = restricted.get(mono, 0.0) + t.coeff
    cross: dict[tuple, float] = {}
    for mono, c in sorted(restricted.items()):
        if c == 0:
            continue
        for i in range(model.l):
            for j in range(i + 1, model.l):
                if mono[i] and mono[j]:
                    key = (i, j, tuple(e - (m in (i, j)) for m, e in enumerate(mono)))
                    cross[key] = cross.get(key, 0.0) + c.real * mono[i] * mono[j]
    return float(min(cross.values(), default=0.0))


def validate_model(model: ModelSpec, seed: int = 0) -> HypothesisReport:
    """Run all hypothesis checks on one seeded draw of SAMPLES points z of
    the unit polydisc, uniform per component, and collect pass/fail with max
    deviations against TOL.

    f = f_k(z) and F(z) are evaluated once; every sampled row reads them,
    and a row whose property needs other points evaluates only those: the
    phase-rotated z (H4, gauge), 2z (H5), |z| (H6, and the positive cone of
    H7), Re z (the reals of H7) and a stencil around the first 50 points (H3).
    """
    l, sigma = model.l, model.coeffs.sigma
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.uniform(size=(l, SAMPLES)))
    z = radius * np.exp(2j * np.pi * rng.uniform(size=(l, SAMPLES)))
    theta = rng.uniform(0.0, 2 * np.pi, size=SAMPLES)
    f, F = model.eval_fk(z), model.eval_F(z)
    modulus = np.abs(z)
    checks: dict[str, CheckResult] = {}

    dev = float(np.max(np.abs(model.eval_fk(np.zeros(l, dtype=complex)))))
    checks["H1"] = CheckResult(dev <= TOL, dev, "f_k(0)")

    # H2: quadratic growth; the sampled constant is informative, structure decides
    growth = float(np.max(np.abs(f) / np.sum(modulus**2, axis=0)))
    structural = all(t.degree == 2 for ts in model.fk for t in ts)
    checks["H2"] = CheckResult(structural, 0.0, f"quadratic growth constant {growth:.3g}")

    # H3: 2 d(Re F)/d(conj z_k) by a 5-point stencil of step h in the real and
    # imaginary directions of each z_k, exact on cubics.  shifts[j, k, d, s]
    # is the shift of component j at node s of the stencil for z_k in
    # direction d: nodes[s] * h (d = 0) or nodes[s] * ih (d = 1) when j = k.
    h, nodes = 0.05, np.array([2.0, 1.0, -1.0, -2.0])
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * h)
    shifts = np.eye(l)[:, :, None, None] * np.multiply.outer([h, 1j * h], nodes)
    reF = np.real(model.eval_F(z[:, None, None, None, :50] + shifts[..., None]))
    d = np.einsum("kdsn,s->dkn", reF, weights)
    dev = float(np.max(np.abs(f[:, :50] - (d[0] + 1j * d[1]))))
    checks["H3"] = CheckResult(dev <= TOL, dev, "gradient structure (FD)")

    # H4 and the gauge identity are one check: f_k equivariant, Re F invariant
    phase = np.exp(1j * sigma[:, None] * theta)
    gauge_dev = max(float(np.max(np.abs(model.eval_fk(phase * z) - phase * f))),
                    float(np.max(np.abs(np.real(model.eval_F(phase * z)) - np.real(F)))))
    checks["H4"] = CheckResult(gauge_dev <= TOL, gauge_dev, "Re F phase invariance")

    lam = 2.0
    dev = float(np.max(np.abs(model.eval_F(lam * z) - lam**3 * F)))
    checks["H5"] = CheckResult(dev <= TOL * max(1.0, lam**3), dev, "degree-3 homogeneity")

    dev = float(np.max(np.abs(np.real(F)) - np.real(model.eval_F(modulus))))
    checks["H6"] = CheckResult(dev <= TOL, max(dev, 0.0), "|Re F| <= F(|z|)")

    im = max(float(np.max(np.abs(np.imag(model.eval_F(z.real))))),
             float(np.max(np.abs(np.imag(model.eval_fk(z.real))))))
    min_f = float(np.min(np.real(model.eval_fk(modulus))))
    checks["H7"] = CheckResult(im <= TOL and min_f >= -TOL, max(im, -min_f, 0.0),
                               f"Im on reals {im:.2e}, min f on cone {min_f:.2e}")

    min_cross = check_supermodularity(model)
    checks["H8"] = CheckResult(min_cross >= -TOL, max(-min_cross, 0.0),
                               f"min cross partial {min_cross:.2e}")

    checks["gauge"] = CheckResult(gauge_dev <= TOL, gauge_dev)
    fz = f * np.conj(z)
    dev = float(np.max(np.abs(np.imag(sigma @ fz))))
    checks["mass_balance"] = CheckResult(dev <= TOL, dev)
    dev = float(np.max(np.abs(np.real(np.sum(fz, axis=0)) - 3.0 * np.real(F))))
    checks["degree_identity"] = CheckResult(dev <= TOL, dev)

    return HypothesisReport(checks=checks, tol=TOL)


# ---------------------------------------------------------------------------
# builtin models


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
        terms = (Term(0.5 * chi, (0, 2, 0), (1, 0, 0)),
                 Term(0.5, (0, 0, 2), (1, 0, 0)))
        alpha, gamma = (2.0, 1.0, 1.0), (1.0, 1.0, 1.0)
    elif name == "cascade3":
        terms = (Term(0.5, (2, 0, 0), (0, 1, 0)),
                 Term(chi, (1, 1, 0), (0, 0, 1)))
        alpha, gamma = (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)
    elif name == "uv2":
        terms = (Term(1.0, (0, 1), (2, 0)),)
        alpha, gamma = (1.0, 1.0), (1.0, float(kappa))
    else:
        raise ValueError(f"unknown builtin model {name!r}")
    l = len(alpha)
    if beta is None:
        beta = np.zeros(l)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (l,)).copy()
    coeffs = CoefficientSet(alpha=np.array(alpha), gamma=np.array(gamma), beta=beta)
    return ModelSpec(coeffs=coeffs, terms=terms, name=name)


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
    return lines + [_term_line(t) for t in model.terms]


def _term_line(t: Term) -> str:
    """The model-file line of a term with a complex coefficient."""
    p, q = (",".join(str(int(v) if float(v).is_integer() else v) for v in exponents)
            for exponents in (t.powers, t.conj_powers))
    return f"term={t.coeff.real!r},{t.coeff.imag!r};p={p};q={q}"


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


def _term(value: str) -> Term:
    """The monomial of a term line's value "<re>,<im>;p=<csv>;q=<csv>"."""
    coeff, *exponents = value.split(";")
    re_im = _floats(coeff)
    if len(re_im) != 2:
        raise ValueError(f"coefficient {coeff!r} is not <re>,<im>")
    pq = parse_fields(exponents, {"p": _ints, "q": _ints})
    return Term(complex(*re_im), pq["p"], pq["q"])


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
    return ModelSpec(coeffs=coeffs, terms=tuple(terms), name="file")


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
