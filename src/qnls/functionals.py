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
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from . import grids
from .grids import FieldState

BOUNDARY_MASS_WARN = 1e-6


def charge(state: FieldState) -> float:
    w = state.model.coeffs.alpha**2 / state.model.coeffs.gamma
    return grids.weighted_norm_sq(state.grid, w, state.components)


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
    P = interaction(state)
    if P == 0.0:
        raise ValueError("Weinstein quotient is undefined at P = 0")
    n = state.grid.n
    return weighted_mass(state, omega) ** (1.5 - n / 4.0) * kinetic(state) ** (n / 4.0) / P


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
    w = state.model.coeffs.alpha**2 / state.model.coeffs.gamma
    rsq = grids.radius_sq(state.grid)
    return float(sum(wk * grids.integrate(state.grid, rsq * np.abs(state.components[k]) ** 2)
                     for k, wk in enumerate(w)))


def variance_rate(state: FieldState) -> float:
    """V' = 4 sum_k alpha_k Im int (grad u_k . x) conj(u_k)."""
    a = state.model.coeffs.alpha
    return float(4.0 * sum(a[k] * grids.momentum_density_integral(state, k)
                           for k in range(state.l)))


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
# smooth virial cutoff
#
# chi(r) = r^2 for r <= 1, chi = 0 for r >= 3, chi'' <= 2 everywhere.  On the
# transition band, with s = (r-1)/2 in [0, 1], the curvature is lowered by a
# non-negative profile psi,
#
#     chi''(r) = 2 - psi(s),   psi = 2 I(8,3;s) + M beta(4,b;s),
#
# a smooth ramp 0 -> 2 (regularized incomplete beta I) plus a beta-density
# bump.  The weights M = 27/11 and b = 380/13 are fixed by the two matching
# conditions chi'(3) = 0 and chi(3) = 0 (total curvature mass 6 with first
# moment placing its centroid at s = 1/4).  psi >= 0 keeps chi'' <= 2
# globally, and the contact orders at the seams leave chi of class C^4, so
# the radial bilaplacian of the scaled cutoff stays continuous.

_CHI_M = 27.0 / 11.0
_CHI_BEXP = 380.0 / 13.0
_CHI_MU_RAMP = 8.0 / 11.0          # mean of the beta(8,3) ramp density
_CHI_S2_RAMP = 6.0 / 11.0          # second moment of the ramp density
_CHI_MU_BUMP = 13.0 / 108.0        # mean of the beta(4,b) bump
_CHI_INV_B83 = 360.0               # 1 / B(8,3)


def _beta_B(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


_CHI_INV_B4B = 1.0 / _beta_B(4.0, _CHI_BEXP)


def _chi_pieces(r):
    r = np.asarray(r, dtype=float)
    inner = r <= 1.0
    outer = r >= 3.0
    band = ~inner & ~outer
    s = np.clip((r - 1.0) / 2.0, 0.0, 1.0)
    return r, inner, band, s


def _psi(s):
    bump = _CHI_INV_B4B * s**3 * (1.0 - s) ** (_CHI_BEXP - 1.0)
    return 2.0 * betainc(8, 3, s) + _CHI_M * bump


def _psi_mass(s):
    """int_0^s psi."""
    ramp = s * betainc(8, 3, s) - _CHI_MU_RAMP * betainc(9, 3, s)
    return 2.0 * ramp + _CHI_M * betainc(4, _CHI_BEXP, s)


def _psi_first_moment(s):
    """int_0^s sigma psi(sigma) d sigma."""
    ramp = 0.5 * s**2 * betainc(8, 3, s) - 0.5 * _CHI_S2_RAMP * betainc(10, 3, s)
    return 2.0 * ramp + _CHI_M * _CHI_MU_BUMP * betainc(5, _CHI_BEXP, s)


def chi_value(r) -> np.ndarray:
    r, inner, band, s = _chi_pieces(r)
    val = r**2 - 4.0 * (s * _psi_mass(s) - _psi_first_moment(s))
    return np.where(inner, r**2, np.where(band, val, 0.0))


def chi_d1(r) -> np.ndarray:
    r, inner, band, s = _chi_pieces(r)
    val = 2.0 * r - 2.0 * _psi_mass(s)
    return np.where(inner, 2.0 * r, np.where(band, val, 0.0))


def chi_d2(r) -> np.ndarray:
    r, inner, band, s = _chi_pieces(r)
    val = 2.0 - _psi(s)
    return np.where(inner, 2.0, np.where(band, val, 0.0))


def chi_d3(r) -> np.ndarray:
    r, inner, band, s = _chi_pieces(r)
    b = _CHI_BEXP
    dramp = _CHI_INV_B83 * s**7 * (1.0 - s) ** 2
    dbump = _CHI_INV_B4B * (3.0 * s**2 * (1.0 - s) ** (b - 1.0)
                            - (b - 1.0) * s**3 * (1.0 - s) ** (b - 2.0))
    val = -0.5 * (2.0 * dramp + _CHI_M * dbump)
    return np.where(band, val, 0.0)


def chi_d4(r) -> np.ndarray:
    r, inner, band, s = _chi_pieces(r)
    b = _CHI_BEXP
    d2ramp = _CHI_INV_B83 * (7.0 * s**6 * (1.0 - s) ** 2 - 2.0 * s**7 * (1.0 - s))
    d2bump = _CHI_INV_B4B * (6.0 * s * (1.0 - s) ** (b - 1.0)
                             - 6.0 * (b - 1.0) * s**2 * (1.0 - s) ** (b - 2.0)
                             + (b - 1.0) * (b - 2.0) * s**3 * (1.0 - s) ** (b - 3.0))
    val = -0.25 * (2.0 * d2ramp + _CHI_M * d2bump)
    return np.where(band, val, 0.0)


def chi_laplacian(r, n: int) -> np.ndarray:
    """Lap chi for radial chi in dimension n; exactly 2n on r <= 1."""
    r = np.asarray(r, dtype=float)
    inner = r <= 1.0
    rs = np.where(inner | (r == 0.0), 1.0, r)
    val = chi_d2(r) + (n - 1) * chi_d1(r) / rs
    return np.where(inner, 2.0 * n, val)


def chi_bilaplacian(r, n: int) -> np.ndarray:
    """Lap^2 chi; vanishes on r <= 1 and r >= 3."""
    r = np.asarray(r, dtype=float)
    inner = r <= 1.0
    rs = np.where(inner | (r == 0.0), 1.0, r)
    val = (chi_d4(r) + 2.0 * (n - 1) * chi_d3(r) / rs
           + (n - 1) * (n - 3) * chi_d2(r) / rs**2
           - (n - 1) * (n - 3) * chi_d1(r) / rs**3)
    return np.where(inner, 0.0, val)


def local_virial_rhs(state: FieldState, R: float) -> float:
    """V'' against the scaled cutoff chi_R(r) = R^2 chi(r/R) in place of |x|^2.

    Normalized to the variance V = sum (alpha^2/gamma) int chi_R |u|^2, so for
    states supported in r < R this reduces to the gradient form 8 K - 4 n P
    (there chi_R'' = 2, Lap chi_R = 2n and Lap^2 chi_R = 0).
    """
    grid = state.grid
    if grid.kind != grids.RADIAL:
        raise ValueError("the cutoff virial identity is for radial states")
    n = grid.n
    rho = grid.axis() / R
    gam = state.model.coeffs.gamma
    grad_sq = sum(gam[k] * np.abs(grids.radial_derivative(grid, state.components[k])) ** 2
                  for k in range(state.l))
    mass = sum(gam[k] * np.abs(state.components[k]) ** 2 for k in range(state.l))
    reF = np.real(state.model.eval_F(state.components))
    term1 = 4.0 * grids.integrate(grid, chi_d2(rho) * grad_sq)
    term2 = -grids.integrate(grid, chi_bilaplacian(rho, n) / R**2 * mass)
    term3 = -2.0 * grids.integrate(grid, chi_laplacian(rho, n) * reF)
    return term1 + term2 + term3


# ---------------------------------------------------------------------------
# dichotomy classifier

GLOBAL = "global"
BLOWUP = "blowup"
INDETERMINATE = "indeterminate"


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


def threshold_report(state: FieldState, groundstate: FieldState,
                     margin: float = 1e-9) -> ThresholdReport:
    """Classify initial data against the frequency-1, beta-0 ground state.

    n=4: global existence needs Q(u0) < Q(psi) strictly.  n=5: global when
    both Q E and Q K products lie strictly below the ground-state products;
    blowup when the energy product is below but the gradient product is
    above.  Boundary cases (within the relative margin) are indeterminate,
    matching the strict inequalities of the underlying statements.
    """
    n = state.grid.n
    if n not in (4, 5):
        raise ValueError("the dichotomy classifier applies to n = 4 and n = 5")
    if groundstate.grid.n != n:
        raise ValueError("ground state and data live in different dimensions")
    Q0, K0 = charge(state), kinetic(state)
    E0 = K0 + linear_term(state) - 2.0 * interaction(state)
    Qg, Kg = charge(groundstate), kinetic(groundstate)
    Eg = Kg - 2.0 * interaction(groundstate)  # beta = 0 energy of the profile

    def below(a, b):
        return a < b - margin * abs(b)

    def above(a, b):
        return a > b + margin * abs(b)

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


def write_diagnostics_csv(snapshots, path_or_buf) -> None:
    if not snapshots:
        raise ValueError("no snapshots to write")
    l = len(snapshots[0].linf)
    header = "t,Q,E,K,L,P,V,Vp," + ",".join(f"linf_{k+1}" for k in range(l))
    lines = [header]
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
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        l = sum(1 for name in header if name.startswith("linf_"))
        for line in fh:
            if not line.strip():
                continue
            vals = [float(v) for v in line.split(",")]
            out.append(FunctionalSnapshot(t=vals[0], Q=vals[1], E=vals[2], K=vals[3],
                                          L=vals[4], P=vals[5], V=vals[6], Vp=vals[7],
                                          linf=tuple(vals[8:8 + l])))
    return out
