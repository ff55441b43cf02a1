"""Ground states of the elliptic system and the variational constructions
built on them.

The stationary profiles solve

    -gamma_k Lap psi_k + b_k psi_k = f_k(psi),   b_k = alpha_k^2 omega / gamma_k + beta_k,

and are computed by the stabilized fixed-point iteration

    psi^{m+1}_k = S_m^2 (-gamma_k Lap + b_k)^{-1} f_k(psi^m),
    S_m = sum_k <(-gamma_k Lap + b_k) psi_k, psi_k> / sum_k <f_k(psi), psi_k>,

whose stabilizing exponent 2 = p/(p-1) sits inside the convergence window
(1, 3] for the homogeneity degree p = 2 of the couplings.

The update is mixed: with T(psi) the right side above, the iterate is
(1 - d) psi^m + d T(psi^m), d = PETVIASHVILI_DAMPING, chosen from the
spectrum of T's linearization M^{-1} J at a profile (M = -gamma Lap + b,
J the Jacobian of f_k; the analysis of Pelinovsky & Stepanyants 2004,
SIAM J. Numer. Anal. 42:1110).  Computed densely for shg3, cascade3 and
uv2, that spectrum is 2 on psi itself, which S removes; 1 on the
translations of Cartesian grids and, for shg3 at chi = 1 on both grid
kinds, on the (z_2, z_3) rotation, a symmetry of its F (not of cascade3's
or uv2's); -1, to rounding, on the gauge mode, the
relative amplitude between components; and otherwise inside
[-0.6, mu_2], the slowest mode mu_2 rising with the dimension on radial
grids from 0.61 (n = 1) through 0.66 (n = 2) to 0.86 (n = 5).  Mixing maps
mu to 1 - d (1 - mu): d = 1 leaves the -1 mode undamped, d = 1/2 removes
it in one step but slows mu_2 to 1 - (1 - mu_2)/2, and d = 0.8 contracts
the -1 mode by 0.6 and mu_2 by 1 - 0.8 (1 - mu_2), 0.73 at n = 2.

Converged profiles are scored by the residual sup norm and by the three
structural identities P = 2I, K = nI, Qcal = (6-n)I that every localized
solution satisfies; their violation measures pure discretization error.  A
:class:`GroundStateResult` derives its functionals, and these relative
deviations as ``pohozaev_dev``, from its profile; the sharp quotient xi1
follows from its Qcal through :func:`qnls.functionals.weinstein_infimum`.
No n >= 6 case arises: grids stop at n = 5.

The same module hosts the charge-constrained energy minimization (gradient
flow with renormalization), the dilation (n = 5) and amplification (n = 4)
initializers used in the instability experiments, and the symmetry-modded
distance used to compare field states to a profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import functionals, grids
from .grids import FieldState, GridSpec, spectral_shift
from .nonlinearity import ModelSpec, model_lines, parse_fields, parse_model_lines


class ConvergenceError(RuntimeError):
    pass


# Petviashvili iteration: stopping tolerance on the residual and on |S - 1|,
# iteration budget, the mixing of the under-relaxed update, and
# the iterations between direct applications of the carried left side
PETVIASHVILI_TOL = 1e-10
PETVIASHVILI_MAX_ITER = 5000
PETVIASHVILI_DAMPING = 0.8
PETVIASHVILI_LHS_REFRESH = 50

# constrained gradient flow: initial step (halved whenever the energy rises),
# tolerance on the Euler-Lagrange residual, and the sweep budget
FLOW_TAU = 0.2
FLOW_TOL = 1e-9
FLOW_MAX_ITER = 100000


@dataclass(frozen=True)
class GroundStateResult:
    """A solved profile and its solve record.  K, Qcal, P, Q, I, J and
    pohozaev_dev are derived from the profile on construction; a profile of
    non-positive action raises ValueError."""

    model: ModelSpec
    grid: GridSpec
    omega: float
    profile: np.ndarray  # real, shape (l, *grid.shape), non-negative
    residual: float
    iterations: int
    # the branch that accepted: "tolerance" (residual and |S - 1| below
    # PETVIASHVILI_TOL) or "floor" (machine-converged); None when unknown
    accepted_on: str | None = None
    K: float = field(init=False)
    Qcal: float = field(init=False)
    P: float = field(init=False)
    Q: float = field(init=False)
    I: float = field(init=False)
    J: float = field(init=False)
    pohozaev_dev: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        state, n = self.state, self.grid.n
        K = functionals.kinetic(state)
        Qcal = functionals.weighted_mass(state, self.omega)
        P = functionals.interaction(state)
        I = 0.5 * (K + Qcal) - P
        if I <= 0:
            raise ValueError("non-positive action: not a localized solution")
        J = functionals.weinstein_quotient_of(K, Qcal, P, n)
        dev = (abs(P - 2.0 * I) / I, abs(K - n * I) / I, abs(Qcal - (6.0 - n) * I) / I)
        for name, value in dict(K=K, Qcal=Qcal, P=P, Q=functionals.charge(state),
                                I=I, J=J, pohozaev_dev=dev).items():
            object.__setattr__(self, name, value)

    @property
    def state(self) -> FieldState:
        return FieldState(self.model, self.grid, self.profile, 0.0)


def _sup_diff(lhs: np.ndarray, fk: np.ndarray, work: np.ndarray) -> float:
    """max |lhs - fk| for real lhs and real or complex fk, through the real
    buffer work (which may be lhs)."""
    np.subtract(lhs, fk.real, out=work)
    if np.iscomplexobj(fk):
        np.hypot(work, fk.imag, out=work)
    else:
        np.abs(work, out=work)
    return float(np.max(work))


def elliptic_residual(model: ModelSpec, grid: GridSpec, psi: np.ndarray, b: np.ndarray) -> float:
    """Sup norm of -gamma_k Lap psi_k + b_k psi_k - f_k(psi)."""
    lhs = grids.shifted_apply(grid, b, model.coeffs.gamma, psi)
    return _sup_diff(lhs, model.eval_fk(psi), lhs)


def _default_init(model: ModelSpec, grid: GridSpec) -> np.ndarray:
    """A unit Gaussian in every component, rearranged on radial and 1-d grids."""
    base = np.exp(-grids.radius_sq(grid))
    if grid.kind == grids.RADIAL or grid.n == 1:
        base = grids.symmetric_decreasing_rearrangement(grid, base)
    return np.stack([base] * model.l)


def petviashvili_solve(model: ModelSpec, omega: float, grid: GridSpec) -> GroundStateResult:
    """Stabilized fixed-point solve of the stationary system at frequency omega.

    The iteration starts from per-component unit Gaussians, their global
    amplitude rescaled so the first stabilization factor is exactly 1.
    Iterates are clipped to the positive cone.  The update is
    mixed with weight PETVIASHVILI_DAMPING = 0.8 on the new iterate: the
    single global stabilization factor leaves the gauge mode (the relative
    amplitude between components) at eigenvalue -1 of the undamped map,
    which the mixing takes to -0.6 while the slowest decaying mode keeps
    most of its speed (see the module docstring).  An iteration applies the
    resolvent once, refined once on radial grids; the left
    side is applied directly only on a schedule and near an accept, so the
    returned residual is elliptic_residual of the profile.  The iteration
    stops once the residual and |S - 1| are below PETVIASHVILI_TOL, or on the
    roundoff floor (see _petviashvili_iterate); accepted_on names which.  Raises
    ConvergenceError on stagnation, after PETVIASHVILI_MAX_ITER iterations,
    or when the stabilization factor leaves [1e-6, 1e6].
    """
    b = model.coeffs.b(omega)
    solve = grids.shifted_solver(grid, b, model.coeffs.gamma)
    psi, res, iterations, accepted_on = _petviashvili_iterate(
        model, grid, _default_init(model, grid), b, solve)
    return GroundStateResult(model, grid, omega, psi, res, iterations, accepted_on)


def _petviashvili_iterate(model, grid, psi, b, solve):
    """The fixed-point loop, updating psi in place; returns (profile, residual,
    iterations run, accepting branch).  f_k is evaluated once per iterate, into
    one buffer.  The left side lhs = (-gamma Lap + b) psi is carried by the
    recurrence lhs' = (1-d) lhs + d S^2 f of the update, exact before the clip
    since the operator maps solve(f) to f.  lhs sets S, so it is applied
    directly every PETVIASHVILI_LHS_REFRESH iterations and once the carried
    residual is below max(tol, roundoff floor): accepts, and best-iterate
    comparisons on the floor, use direct residuals, and a direct application
    overwrites the carried lhs.  On Cartesian grids an iteration makes no
    full-size array: its largest temporary is one field of the stack.  On
    radial grids the resolvent solve takes one step of iterative refinement,
    x += solve(f - lhs_of(x)), through one more stack, which lowers the
    roundoff floor the residual settles on: on 18 shg3 grids at n = 5 near
    N = 1024, 2 of the floors exceed 2e-10 with it and 9 without."""
    def lhs_of(psi, out=None):
        return grids.shifted_apply(grid, b, model.coeffs.gamma, psi, out)

    # rescale so the first stabilization factor is 1: S(c psi) = S(psi)/c;
    # lhs is linear in psi and f_k homogeneous of degree 2
    lhs, fk = lhs_of(psi), model.eval_fk(psi)
    A, B = grids.pairing(grid, lhs, psi), grids.pairing(grid, fk.real, psi)
    if B <= 0:
        raise ConvergenceError("interaction pairing non-positive on the initial guess")
    c = A / B
    psi *= c
    lhs *= c
    fk *= c * c

    # roundoff floor of the residual: dominated by the origin row of the
    # difference operator, eps * (2n/h^2) * gamma * |psi|
    res_floor_coeff = 64.0 * np.finfo(float).eps * (
        2.0 * grid.n / grid.h**2 * float(np.max(model.coeffs.gamma)) + float(np.max(b)))

    if grid.kind == grids.RADIAL:
        corr = np.empty_like(psi)

        def resolve(f, out):
            solve(f, out=out)
            np.subtract(f, lhs_of(out, corr), out=corr)
            out += solve(corr, out=corr)
            return out
    else:
        resolve = solve

    S, work = np.inf, np.empty_like(psi)
    best_res, best_psi, kept, since_best = np.inf, np.empty_like(psi), False, 0
    for iteration in range(1, PETVIASHVILI_MAX_ITER + 1):
        # fk itself for real couplings; a model with complex coefficients
        # iterates on the real part (the residual counts the imaginary part)
        f = fk.real
        A, B = grids.pairing(grid, lhs, psi), grids.pairing(grid, f, psi)
        if not np.isfinite(B) or B <= 0:
            raise ConvergenceError(f"interaction pairing degenerated at iteration {iteration}")
        S = A / B
        if not 1e-6 < S < 1e6:
            raise ConvergenceError(f"stabilization factor diverged: S={S:.3e}")
        mix = PETVIASHVILI_DAMPING * S**2
        resolve(f, out=work)
        work *= mix
        psi *= 1.0 - PETVIASHVILI_DAMPING
        psi += work
        np.maximum(psi, 0.0, out=psi)
        np.multiply(f, mix, out=work)
        lhs *= 1.0 - PETVIASHVILI_DAMPING
        lhs += work
        model.eval_fk(psi, out=fk)
        res = _sup_diff(lhs, fk, work)
        floor = res_floor_coeff * max(1.0, float(np.max(psi)))  # psi >= 0
        if iteration % PETVIASHVILI_LHS_REFRESH == 0 or res < max(floor, PETVIASHVILI_TOL):
            res = _sup_diff(lhs_of(psi, lhs), fk, work)
        if res < PETVIASHVILI_TOL and abs(S - 1.0) < PETVIASHVILI_TOL:
            return psi, res, iteration, "tolerance"
        if res < best_res:
            best_res, since_best = res, 0
            kept = res < max(floor, 1e-6)
            if kept:
                np.copyto(best_psi, psi)
        else:
            since_best += 1
        # machine-converged: the residual sits on the roundoff floor and no
        # longer improves; the best iterate (kept once its residual is below
        # max(floor, 1e-6)) is returned with its direct residual, which the
        # clip can leave above the carried one: then the iteration stalled
        if since_best > 50 and abs(S - 1.0) < 1e-12 and kept:
            res = _sup_diff(lhs_of(best_psi, lhs), model.eval_fk(best_psi, out=fk), work)
            if res > max(floor, 1e-6):
                raise ConvergenceError(f"stalled at residual {res:.3e}")
            return best_psi, res, iteration, "floor"
    raise ConvergenceError(
        f"no convergence in {PETVIASHVILI_MAX_ITER} iterations (residual {res:.3e}, S-1 {S - 1:.3e})")


# ---------------------------------------------------------------------------
# charge-constrained energy minimization


@dataclass(frozen=True)
class ConstrainedMinResult:
    nu: float
    minimizer: FieldState
    I_nu: float
    lagrange_theta: float   # K - 3P = theta Q at the minimizer; -theta is its frequency
    residual: float         # Euler-Lagrange residual sup norm
    iterations: int


def constrained_minimize(model: ModelSpec, nu: float, grid: GridSpec) -> ConstrainedMinResult:
    """Minimize the energy at fixed charge nu by renormalized gradient flow.

    Each sweep takes a semi-implicit descent step: backward Euler on the
    dispersive part, explicit quadratic term, and the current multiplier
    estimate theta = (K - 3P)/nu carried along so the step is tangential to
    the charge sphere; a global rescale then restores Q = nu exactly.  With
    the multiplier inside the step the fixed points of the sweep solve the
    constrained Euler-Lagrange equation exactly for any tau (a plain
    renormalized step would leave an O(tau) bias).  tau starts at FLOW_TAU
    and is halved whenever the energy fails to decrease.  Convergence is
    declared on the sup norm of the Euler-Lagrange residual.
    """
    if grid.n > 3:
        raise ValueError("the constrained problem is posed for 1 <= n <= 3")
    if nu <= 0:
        raise ValueError("nu must be positive")
    w_charge = model.coeffs.charge_weights
    wc = w_charge.reshape((model.l,) + (1,) * len(grid.shape))

    def functionals_of(phi):
        return (grids.weighted_grad_sq(grid, model.coeffs.gamma, phi),
                grids.integrate(grid, model.eval_F(phi)))

    phi = _default_init(model, grid)
    phi *= np.sqrt(nu / grids.weighted_norm_sq(grid, w_charge, phi))
    K, P = functionals_of(phi)
    E = K + grids.weighted_norm_sq(grid, model.coeffs.beta, phi) - 2 * P

    tau = FLOW_TAU
    solver = grids.shifted_solver(grid, 1.0 / tau + model.coeffs.beta, model.coeffs.gamma)
    iterations = 0
    residual = np.inf
    theta = (K - 3.0 * P) / nu
    while iterations < FLOW_MAX_ITER:
        iterations += 1
        f = model.eval_fk(phi).real
        # (-gamma Lap + beta + 1/tau) trial = phi/tau + f + theta w phi
        trial = solver(phi / tau + f + theta * wc * phi)
        trial *= np.sqrt(nu / grids.weighted_norm_sq(grid, w_charge, trial))
        K, P = functionals_of(trial)
        L = grids.weighted_norm_sq(grid, model.coeffs.beta, trial)
        E_new = K + L - 2.0 * P
        if E_new > E + 1e-12 * max(1.0, abs(E)):
            tau *= 0.5
            if tau < 1e-5:
                break
            solver = grids.shifted_solver(grid, 1.0 / tau + model.coeffs.beta,
                                          model.coeffs.gamma)
            continue
        phi, E = trial, E_new
        theta = (K - 3.0 * P) / nu
        if iterations % 20 == 0 or iterations < 10:
            residual = elliptic_residual(model, grid, phi, model.coeffs.beta - theta * w_charge)
            if residual < FLOW_TOL:
                break
    state = FieldState(model, grid, phi, 0.0)
    if residual > max(FLOW_TOL, 1e-6):
        raise ConvergenceError(
            f"constrained flow stalled: EL residual {residual:.3e} after {iterations} sweeps")
    return ConstrainedMinResult(nu=nu, minimizer=state, I_nu=E, lagrange_theta=theta,
                                residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# instability constructions


def lambda_star(state: FieldState) -> float:
    """Unique dilation parameter putting the mass-preserving rescale of the
    state on the zero set of K - (5/2)P; closed form (2K/(5P))^2."""
    if state.grid.n != 5:
        raise ValueError("the dilation parameter is defined for n = 5")
    K = functionals.kinetic(state)
    P = functionals.interaction(state)
    if P <= 0:
        raise ValueError("need P > 0")
    return (2.0 * K / (5.0 * P)) ** 2


def dilated_initializer(profile: FieldState, lam: float) -> FieldState:
    """Mass-preserving dilation lam^{n/2} psi(lam x); requires lam > 1."""
    if lam <= 1.0:
        raise ValueError("instability dilation requires lam > 1")
    return mass_preserving_dilation(profile, lam)


def mass_preserving_dilation(state: FieldState, lam: float) -> FieldState:
    n = state.grid.n
    return FieldState(state.model, state.grid.scaled(1.0 / lam),
                      lam ** (n / 2.0) * state.components, state.t)


def amplified_initializer(profile: FieldState, eps: float) -> tuple[FieldState, float]:
    """(1+eps) psi and its predicted energy -2 (1+eps)^2 eps P(psi) (n=4)."""
    if eps <= 0:
        raise ValueError("instability amplification requires eps > 0")
    if profile.grid.n != 4:
        raise ValueError("the amplified datum is the four-dimensional construction")
    out = FieldState(profile.model, profile.grid, (1.0 + eps) * profile.components, profile.t)
    predicted_E = -2.0 * (1.0 + eps) ** 2 * eps * functionals.interaction(profile)
    return out, predicted_E


# ---------------------------------------------------------------------------
# distances modulo the symmetry group


def _phase_period(sigma: np.ndarray) -> float:
    denors = [Fraction(float(s)).limit_denominator(64).denominator for s in sigma]
    q = 1
    for d in denors:
        q = q * d // np.gcd(q, d)
    return 2.0 * np.pi * q


def _vertex_offset(a: float, b: float, c: float) -> float:
    """Offset, in sample spacings from the middle sample b, of the vertex of
    the parabola through three equally spaced samples a, b, c."""
    denom = a - 2 * b + c
    return 0.5 * (a - c) / denom if denom != 0 else 0.0


def _best_phase(sigma: np.ndarray, c: np.ndarray, period: float) -> float:
    """max over theta of Re sum_k exp(-i sigma_k theta) c_k."""
    thetas = np.linspace(0.0, period, 2048, endpoint=False)
    g = np.real(np.exp(-1j * np.outer(thetas, sigma)) @ c)
    j = int(np.argmax(g))
    # parabolic refinement on the periodic samples
    delta = _vertex_offset(g[j - 1], g[j], g[(j + 1) % g.size])
    theta = thetas[j] + delta * (thetas[1] - thetas[0])
    return float(np.real(np.exp(-1j * sigma * theta) @ c))


def modulated_distance(state: FieldState, reference: FieldState,
                       relative: bool = True) -> float:
    """L2 distance to the reference profile minimized over translations (1-d
    Cartesian grids) and the coupled phase action e^{i sigma_k theta}, not
    over the (z_2, z_3) rotation of shg3 at chi = 1."""
    if state.grid != reference.grid:
        raise ValueError("states must share one grid")
    grid = state.grid
    sigma = state.model.coeffs.sigma
    period = _phase_period(sigma)
    w = grids.quadrature_weights(grid)
    u = state.components
    psi = reference.components
    nu2 = grids.norm_sq(grid, u)
    np2 = grids.norm_sq(grid, psi)
    axes = tuple(range(1, u.ndim))

    def overlap_at(shift: float | None) -> float:
        ps = psi if shift is None else spectral_shift(grid, psi, shift)
        return _best_phase(sigma, np.sum(w * u * np.conj(ps), axis=axes), period)

    if grid.kind == grids.CARTESIAN and grid.n == 1:
        corr = np.fft.ifft(np.fft.fft(u) * np.conj(np.fft.fft(psi))) * grid.h
        thetas = np.linspace(0.0, period, 256, endpoint=False)
        g = np.real(np.tensordot(np.exp(-1j * np.outer(thetas, sigma)), corr, axes=(1, 0)))
        j = int(np.unravel_index(np.argmax(g), g.shape)[1])
        y0 = j * grid.h
        # parabolic refinement of the shift around the best grid offset
        vals = [overlap_at(y0 - grid.h), overlap_at(y0), overlap_at(y0 + grid.h)]
        best = overlap_at(y0 + _vertex_offset(*vals) * grid.h)
        best = max(best, vals[1])
    else:
        best = overlap_at(None)

    dist = np.sqrt(max(nu2 + np2 - 2.0 * best, 0.0))
    return float(dist / np.sqrt(np2)) if relative else float(dist)


def peak_aligned_linf_error(state: FieldState, reference: FieldState) -> float:
    """Sup-norm error after aligning density peaks (sub-grid parabola fit)."""
    if state.grid != reference.grid:
        raise ValueError("states must share one grid")
    grid = state.grid
    if grid.kind == grids.CARTESIAN and grid.n == 1:
        def peak(comps):
            dens = np.sum(np.abs(comps) ** 2, axis=0)
            j = int(np.argmax(dens))
            return (j + _vertex_offset(dens[j - 1], dens[j], dens[(j + 1) % dens.size])) * grid.h
        shift = peak(state.components) - peak(reference.components)
        moved = spectral_shift(grid, state.components, -shift)
    else:
        moved = state.components
    return float(np.max(np.abs(moved - reference.components)))


# ---------------------------------------------------------------------------
# ground-state archive files (snapshot + text trailer)


def write_groundstate_archive(result: GroundStateResult, path) -> None:
    grids.write_snapshot(result.state, path)
    lines = ["", f"omega={result.omega!r}", f"residual={result.residual!r}",
             f"iterations={result.iterations}", f"accepted_on={result.accepted_on or ''}",
             "[model]"] + model_lines(result.model)
    with open(path, "ab") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _accepted_on(text: str) -> str | None:
    if text not in ("", "tolerance", "floor"):
        raise ValueError("expected tolerance or floor")
    return text or None


def read_groundstate_archive(path) -> GroundStateResult:
    """Read an archive: the profile from its snapshot; omega, residual,
    iterations and accepted_on (None when missing or empty) from its trailer,
    whose other lines, such as the functionals and restarts older archives
    stored, are ignored.  A malformed archive, or a profile of non-positive
    action, raises ValueError naming the file (and the field)."""
    grid, comps, _, trailer = grids.read_snapshot_raw(path, return_trailer=True)
    head, _, model_part = trailer.partition("[model]")
    spec = dict(omega=float, residual=float, iterations=int, accepted_on=_accepted_on)
    try:
        model = parse_model_lines(model_part.strip().splitlines())
        kv = parse_fields(["accepted_on="] + head.strip().splitlines(), spec)
        return GroundStateResult(model=model, grid=grid, profile=np.real(comps), **kv)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
