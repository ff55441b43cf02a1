"""Scalar functionals of a field state: conserved quantities, variational
quotients, virial right-hand sides, and the global-versus-blowup classifier.

With charge weights alpha_k^2/gamma_k and zero-order coefficients
b_k = alpha_k^2 omega / gamma_k + beta_k the basic quantities are

    Q    = sum_k (alpha_k^2/gamma_k) ||u_k||^2          (charge)
    K    = sum_k gamma_k ||grad u_k||^2                 (kinetic)
    L    = sum_k beta_k ||u_k||^2
    P    = Re int F(u) dx                               (interaction)
    E    = K + L - 2 P                                  (energy)
    Qcal = sum_k b_k ||u_k||^2                          (omega-weighted mass)
    I    = (K + Qcal)/2 - P                             (action at omega)
    J    = Qcal^(3/2 - n/4) K^(n/4) / P                 (Weinstein quotient)

Qcal and Q coincide at omega = 1, beta = 0; the API keeps them distinct and
requires an explicit omega wherever Qcal enters.  All integrals are the grid
quadratures from :mod:`qnls.grids`; no interpolation happens here, so the
algebraic identities among the functionals hold to rounding whenever they
hold pointwise.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from . import grids
from .grids import FieldState
from .nonlinearity import parse_fields

BOUNDARY_MASS_WARN = 1e-6


def charge(state: FieldState) -> float:
    return grids.weighted_norm_sq(state.grid, state.model.coeffs.charge_weights,
                                  state.components)


def kinetic(state: FieldState) -> float:
    return grids.weighted_grad_sq(state.grid, state.model.coeffs.gamma, state.components)


def linear_term(state: FieldState) -> float:
    return grids.weighted_norm_sq(state.grid, state.model.coeffs.beta, state.components)


def interaction(state: FieldState) -> float:
    """P = quadrature of Re F(u)."""
    return grids.integrate(state.grid, np.real(state.model.eval_F(state.components)))


def energy(state: FieldState) -> float:
    return kinetic(state) + linear_term(state) - 2.0 * interaction(state)


def weighted_mass(state: FieldState, omega: float) -> float:
    """Qcal at frequency omega: sum_k b_k ||u_k||^2."""
    return grids.weighted_norm_sq(state.grid, state.model.coeffs.b(omega), state.components)


def action(state: FieldState, omega: float) -> float:
    return 0.5 * (kinetic(state) + weighted_mass(state, omega)) - interaction(state)


def weinstein_quotient(state: FieldState, omega: float) -> float:
    return weinstein_quotient_of(kinetic(state), weighted_mass(state, omega),
                                 interaction(state), state.grid.n)


def weinstein_quotient_of(K: float, Qcal: float, P: float, n: int) -> float:
    """J = Qcal^(3/2 - n/4) K^(n/4) / P from functionals already in hand."""
    if P == 0.0:
        raise ValueError("Weinstein quotient is undefined at P = 0")
    return Qcal ** (1.5 - n / 4.0) * K ** (n / 4.0) / P


def weinstein_infimum(qcal_gs: float, n: int) -> float:
    """Sharp lower bound of the Weinstein quotient from a ground-state Qcal."""
    return n ** (n / 4.0) / 2.0 * (6.0 - n) ** (1.0 - n / 4.0) * np.sqrt(qcal_gs)


def sharp_constant(qcal_gs: float, n: int) -> float:
    """Best constant C with P <= C Qcal^(3/2-n/4) K^(n/4); the reciprocal of
    the sharp quotient bound."""
    return 2.0 * (6.0 - n) ** (n / 4.0 - 1.0) / n ** (n / 4.0) / np.sqrt(qcal_gs)


def variance(state: FieldState, warn: bool = True) -> float:
    """V = sum_k (alpha_k^2/gamma_k) || |x| u_k ||^2."""
    if warn and state.grid.kind == grids.CARTESIAN:
        frac = grids.boundary_mass_fraction(state)
        if frac > BOUNDARY_MASS_WARN:
            warnings.warn(
                f"variance with {frac:.2e} of the mass within 10% of the box edge;"
                " the coordinate weight |x|^2 is not periodic", stacklevel=2)
    dens = grids.weighted_density(state.model.coeffs.charge_weights, state.components)
    return grids.integrate(state.grid, grids.radius_sq(state.grid) * dens)


def variance_rate(state: FieldState) -> float:
    """V' = -2 sum_k alpha_k Im sum_i W_i |x_i|^2 conj(u_k,i) (Lap_h u_k)_i, the
    time derivative of the discrete V under the semi-discrete flow (W the
    quadrature weights; beta_k drops out pointwise, the couplings by mass
    balance); in the continuum, 4 sum_k alpha_k Im int (grad u_k . x) conj(u_k).
    One field at a time: a stacked Laplacian holds a stack-size spectrum."""
    grid = state.grid
    weight = grids.quadrature_weights(grid) * grids.radius_sq(grid)
    rate = 0.0
    for a_k, u_k in zip(state.model.coeffs.alpha, state.components):
        lap = grids.apply_laplacian(grid, u_k)
        lap *= weight
        rate += a_k * np.vdot(u_k, lap).imag
    return float(-2.0 * rate)


def virial_rhs(state: FieldState, E0: float) -> float:
    """V'' in conservation-law form: 2n E0 - 2n L + 2(4-n) K."""
    n = state.grid.n
    return 2.0 * n * E0 - 2.0 * n * linear_term(state) + 2.0 * (4.0 - n) * kinetic(state)


def virial_rhs_gradient_form(state: FieldState) -> float:
    """V'' in gradient form: 8 K - 4 n P (identical given E0 = K + L - 2P)."""
    return 8.0 * kinetic(state) - 4.0 * state.grid.n * interaction(state)


def virial_functional(state: FieldState) -> float:
    """K - (5/2) P: one eighth of V'' in five dimensions, zero on ground states."""
    if state.grid.n != 5:
        raise ValueError("the K - 5/2 P functional is specific to n = 5")
    return kinetic(state) - 2.5 * interaction(state)


# ---------------------------------------------------------------------------
# dichotomy classifier

GLOBAL = "global"
BLOWUP = "blowup"
INDETERMINATE = "indeterminate"
THRESHOLD_MARGIN = 1e-9  # relative margin of the strict threshold inequalities


@dataclass(frozen=True)
class ThresholdReport:
    """Charge/energy/gradient products of the data against the ground state."""

    n: int
    Q: float
    QK: float
    QE: float
    Q_gs: float
    QK_gs: float
    QE_gs: float
    classification: str


def threshold_report(state: FieldState, groundstate: FieldState) -> ThresholdReport:
    """Classify initial data against the frequency-1, beta-0 ground state.

    n=4: global existence needs Q(u0) < Q(psi) strictly.  n=5: global when
    both Q E and Q K products lie strictly below the ground-state products;
    blowup when the energy product is below but the gradient product is
    above.  Boundary cases (within the relative THRESHOLD_MARGIN) are
    indeterminate, matching the strict inequalities of the underlying
    statements.  A ground state with beta != 0 raises ValueError: the
    statements, and the energy Eg = Kg - 2 Pg below, are those of beta = 0.
    """
    n = state.grid.n
    if n not in (4, 5):
        raise ValueError("the dichotomy classifier applies to n = 4 and n = 5")
    if np.any(groundstate.model.coeffs.beta):
        raise ValueError("the dichotomy classifier applies to beta = 0 ground states")
    if groundstate.grid.n != n:
        raise ValueError("ground state and data live in different dimensions")
    Q0, K0 = charge(state), kinetic(state)
    E0 = K0 + linear_term(state) - 2.0 * interaction(state)
    Qg, Kg = charge(groundstate), kinetic(groundstate)
    Eg = Kg - 2.0 * interaction(groundstate)  # beta = 0 energy of the profile

    def below(a, b):
        return a < b - THRESHOLD_MARGIN * abs(b)

    def above(a, b):
        return a > b + THRESHOLD_MARGIN * abs(b)

    if n == 4:
        cls = GLOBAL if below(Q0, Qg) else INDETERMINATE
    else:
        energy_ok = below(Q0 * E0, Qg * Eg)
        if energy_ok and below(Q0 * K0, Qg * Kg):
            cls = GLOBAL
        elif energy_ok and above(Q0 * K0, Qg * Kg):
            cls = BLOWUP
        else:
            cls = INDETERMINATE
    return ThresholdReport(n=n, Q=Q0, QK=Q0 * K0, QE=Q0 * E0,
                           Q_gs=Qg, QK_gs=Qg * Kg, QE_gs=Qg * Eg,
                           classification=cls)


# ---------------------------------------------------------------------------
# time series records


@dataclass(frozen=True)
class FunctionalSnapshot:
    t: float
    Q: float
    E: float
    K: float
    L: float
    P: float
    V: float
    Vp: float
    linf: tuple[float, ...]


def snapshot_of(state: FieldState, with_variance: bool = True) -> FunctionalSnapshot:
    K = kinetic(state)
    L = linear_term(state)
    P = interaction(state)
    V = variance(state, warn=False) if with_variance else float("nan")
    Vp = variance_rate(state) if with_variance else float("nan")
    return FunctionalSnapshot(t=state.t, Q=charge(state), E=K + L - 2.0 * P, K=K, L=L,
                              P=P, V=V, Vp=Vp, linf=tuple(state.linf()))


def _csv_columns(l: int) -> list[str]:
    return ["t", "Q", "E", "K", "L", "P", "V", "Vp"] + [f"linf_{k + 1}" for k in range(l)]


def write_diagnostics_csv(snapshots, path_or_buf) -> None:
    if not snapshots:
        raise ValueError("no snapshots to write")
    lines = [",".join(_csv_columns(len(snapshots[0].linf)))]
    for s in snapshots:
        vals = [s.t, s.Q, s.E, s.K, s.L, s.P, s.V, s.Vp, *s.linf]
        lines.append(",".join(repr(float(v)) for v in vals))
    text = "\n".join(lines) + "\n"
    if isinstance(path_or_buf, io.TextIOBase):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


def read_diagnostics_csv(path) -> list[FunctionalSnapshot]:
    """Read a file of write_diagnostics_csv.  A malformed file (header, column
    count or value) raises ValueError naming the file and the field."""
    out = []
    with open(path) as fh:
        try:
            names = fh.readline().strip().split(",")
            if len(names) < 9 or names != _csv_columns(len(names) - 8):
                raise ValueError(f"bad header {','.join(names)!r}: expected "
                                 "t,Q,E,K,L,P,V,Vp,linf_1,...")
            spec = dict.fromkeys(names, float)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = line.split(",")
                if len(row) != len(names):
                    raise ValueError(f"line {lineno} has {len(row)} fields, "
                                     f"expected {len(names)}")
                try:
                    vals = list(parse_fields(map("=".join, zip(names, row)), spec).values())
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                out.append(FunctionalSnapshot(*vals[:8], linf=tuple(vals[8:])))
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from None
    return out
