"""Ground states of the elliptic system and the variational constructions
built on them.

The stationary profiles solve

    -gamma_k Lap psi_k + b_k psi_k = f_k(psi),   b_k = alpha_k^2 omega / gamma_k + beta_k,

and are computed by the stabilized fixed-point iteration

    psi^{m+1}_k = S_m^2 (-gamma_k Lap + b_k)^{-1} f_k(psi^m),
    S_m = sum_k <(-gamma_k Lap + b_k) psi_k, psi_k> / sum_k <f_k(psi), psi_k>,

whose stabilizing exponent 2 = p/(p-1) sits inside the convergence window
(1, 3] for the homogeneity degree p = 2 of the couplings.  Converged
profiles are scored by the residual sup norm and by the three structural
identities P = 2I, K = nI, Qcal = (6-n)I that every localized solution
satisfies; their violation measures pure discretization error.

The same module hosts the charge-constrained energy minimization (gradient
flow with renormalization), the sharp-quotient normalizations, the dilation
and amplification initializers used in the stability experiments, and the
symmetry-modded distance used to compare field states to a profile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import functionals, grids
from .grids import FieldState, GridSpec
from .nonlinearity import ModelSpec, model_lines, parse_fields, parse_model_lines


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class GroundStateResult:
    model: ModelSpec
    grid: GridSpec
    omega: float
    profile: np.ndarray  # real, shape (l, *grid.shape), non-negative
    residual: float
    iterations: int
    K: float
    Qcal: float
    P: float
    Q: float
    I: float
    J: float
    pohozaev_dev: tuple[float, float, float]
    restarts: int = 0  # tilt restarts before the attempt that converged

    @property
    def state(self) -> FieldState:
        return FieldState(self.model, self.grid, self.profile, 0.0)


def _linear_solver(model: ModelSpec, grid: GridSpec, b: np.ndarray):
    """Return a function applying (-gamma_k Lap + b_k)^{-1} componentwise to
    real right-hand sides; the result is real."""
    if grid.kind == grids.CARTESIAN:
        ksq = grids._cartesian_half_ksq(grid)
        denom = np.stack([model.coeffs.gamma[k] * ksq + b[k] for k in range(model.l)])
        axes = tuple(range(-grid.n, 0))

        def solve(rhs):
            return np.fft.irfftn(np.fft.rfftn(rhs, axes=axes) / denom, s=grid.shape, axes=axes)

        return solve
    return grids.radial_shifted_solver(grid, b, model.coeffs.gamma)


def _elliptic_sides(model: ModelSpec, grid: GridSpec, psi: np.ndarray, b: np.ndarray):
    """(-gamma_k Lap psi_k + b_k psi_k, f_k(psi)), real for a real psi and
    a model with real coefficients."""
    shape_ones = (1,) * len(grid.shape)
    g = model.coeffs.gamma.reshape((model.l,) + shape_ones)
    bb = np.asarray(b).reshape((model.l,) + shape_ones)
    return -g * grids.apply_laplacian(grid, psi) + bb * psi, model.eval_fk(psi)


def elliptic_residual(model: ModelSpec, grid: GridSpec, psi: np.ndarray, b: np.ndarray) -> float:
    """Sup norm of -gamma_k Lap psi_k + b_k psi_k - f_k(psi)."""
    lhs, f = _elliptic_sides(model, grid, psi, b)
    return float(np.max(np.abs(lhs - f)))


def _default_init(model: ModelSpec, grid: GridSpec, amplitudes) -> np.ndarray:
    rsq = grids.radius_sq(grid)
    base = np.exp(-rsq)
    init = np.stack([a * base for a in amplitudes])
    if grid.kind == grids.RADIAL or grid.n == 1:
        init = np.stack([
            np.real(grids.symmetric_decreasing_rearrangement(grids.Field(grid, c)).values)
            for c in init])
    return init


def petviashvili_solve(model: ModelSpec, omega: float, grid: GridSpec,
                       init: np.ndarray | None = None, tol: float = 1e-10,
                       max_iter: int = 5000, damping: float = 0.5) -> GroundStateResult:
    """Stabilized fixed-point solve of the stationary system at frequency omega.

    init defaults to per-component Gaussians, amplitude-tilted on restart;
    the global amplitude is rescaled so the first stabilization factor is
    exactly 1.  Iterates are clipped to the positive cone.  The update is
    under-relaxed (default mixing 1/2): a single global stabilization factor
    leaves the relative amplitude between components neutrally stable for
    multi-component couplings, and the mixing damps that internal mode.
    Raises ConvergenceError on stagnation or when the stabilization factor
    leaves [1e-6, 1e6].
    """
    if grid.n >= 6:
        raise ValueError("no nontrivial localized solutions for n >= 6 "
                         "(the weighted-mass identity forces Qcal <= 0)")
    b = model.coeffs.b(omega)
    solve = _linear_solver(model, grid, b)
    w = grids.quadrature_weights(grid)

    tilts = [np.ones(model.l),
             1.0 + 0.5 * np.arange(model.l),
             np.linspace(1.5, 0.5, model.l)]
    last_exc: Exception | None = None
    for attempt, tilt in enumerate(tilts):
        psi = np.array(init, dtype=float) if init is not None and attempt == 0 \
            else _default_init(model, grid, tilt)
        if np.max(np.abs(psi)) == 0:
            raise ValueError("initial guess must not vanish identically")
        try:
            result = _petviashvili_iterate(model, grid, psi, b, solve, w, omega, tol,
                                           max_iter, damping)
            return replace(result, restarts=attempt)
        except ConvergenceError as exc:
            last_exc = exc
    raise ConvergenceError(f"fixed-point iteration failed after restarts: {last_exc}")


def _petviashvili_iterate(model, grid, psi, b, solve, w, omega, tol, max_iter,
                          damping):
    """The fixed-point loop.  The two sides of the stationary system are
    computed once per iterate: the residual test of one iteration and the
    update of the next share them."""
    def quad(x):
        return float(np.sum(w * x))

    # rescale so the first stabilization factor is 1: S(c psi) = S(psi)/c
    lhs, fk = _elliptic_sides(model, grid, psi, b)
    A = quad(np.sum(lhs * psi, axis=0))
    B = quad(np.sum(fk.real * psi, axis=0))
    if B <= 0:
        raise ConvergenceError("interaction pairing non-positive on the initial guess")
    psi = (A / B) * psi
    lhs, fk = _elliptic_sides(model, grid, psi, b)

    # roundoff floor of the residual: dominated by the origin row of the
    # difference operator, eps * (2n/h^2) * gamma * |psi|
    res_floor_coeff = 64.0 * np.finfo(float).eps * (
        2.0 * grid.n / grid.h**2 * float(np.max(model.coeffs.gamma)) + float(np.max(b)))

    S = np.inf
    best_res, best_psi, since_best = np.inf, None, 0
    for iteration in range(1, max_iter + 1):
        # fk itself for real couplings; a model with complex coefficients
        # iterates on the real part (the residual counts the imaginary part)
        f = fk.real
        A = quad(np.sum(lhs * psi, axis=0))
        B = quad(np.sum(f * psi, axis=0))
        if not np.isfinite(B) or B <= 0:
            raise ConvergenceError(f"interaction pairing degenerated at iteration {iteration}")
        S = A / B
        if not 1e-6 < S < 1e6:
            raise ConvergenceError(f"stabilization factor diverged: S={S:.3e}")
        psi = np.maximum((1.0 - damping) * psi + damping * S**2 * solve(f), 0.0)
        # drop the old iterate's fields before the new ones are allocated
        f = lhs = fk = None
        lhs, fk = _elliptic_sides(model, grid, psi, b)
        res = float(np.max(np.abs(lhs - fk)))
        if res < tol and abs(S - 1.0) < tol:
            return _finalize(model, grid, omega, psi, res, iteration)
        if res < best_res:
            best_res, best_psi, since_best = res, psi, 0
        else:
            since_best += 1
        # machine-converged: the residual sits on the roundoff floor of the
        # operator application and no longer improves; the best iterate is
        # returned, with the count of iterations actually run
        floor = res_floor_coeff * max(1.0, float(np.max(np.abs(psi))))
        if since_best > 50 and abs(S - 1.0) < 1e-12 and best_res < max(floor, 1e-6):
            return _finalize(model, grid, omega, best_psi, best_res, iteration)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (residual {res:.3e}, S-1 {S - 1:.3e})")


def _finalize(model, grid, omega, psi, res, iterations) -> GroundStateResult:
    state = FieldState(model, grid, psi, 0.0)
    K = functionals.kinetic(state)
    Qcal = functionals.weighted_mass(state, omega)
    P = functionals.interaction(state)
    Q = functionals.charge(state)
    I = 0.5 * (K + Qcal) - P
    J = functionals.weinstein_quotient(state, omega)
    dev = _pohozaev_deviations(K, Qcal, P, I, grid.n)
    return GroundStateResult(model=model, grid=grid, omega=omega, profile=psi,
                             residual=res, iterations=iterations, K=K, Qcal=Qcal,
                             P=P, Q=Q, I=I, J=J, pohozaev_dev=dev)


def _pohozaev_deviations(K, Qcal, P, I, n) -> tuple[float, float, float]:
    if I <= 0:
        raise ValueError("non-positive action: not a localized solution")
    return (abs(P - 2.0 * I) / I, abs(K - n * I) / I, abs(Qcal - (6.0 - n) * I) / I)


def pohozaev_check(result: GroundStateResult, n: int | None = None) -> tuple[float, float, float]:
    """Relative deviations of (P - 2I, K - nI, Qcal - (6-n)I) from zero."""
    n = result.grid.n if n is None else n
    if n >= 6:
        raise ValueError("no nontrivial localized solutions for n >= 6")
    return _pohozaev_deviations(result.K, result.Qcal, result.P, result.I, n)


# ---------------------------------------------------------------------------
# scaling normalizations
#
# The dilation delta_lambda psi = psi(./lambda) acts on grid data exactly by
# rescaling the grid extent, so these maps are free of interpolation error.


def normalize_KQ1(state: FieldState, omega: float) -> FieldState:
    """Rescale amplitude and length so K = Qcal = 1; leaves J unchanged."""
    K = functionals.kinetic(state)
    Qcal = functionals.weighted_mass(state, omega)
    if K <= 0 or Qcal <= 0:
        raise ValueError("normalization needs a nonzero field")
    n = state.grid.n
    amp = Qcal ** (n / 4.0 - 0.5) / K ** (n / 4.0)
    lam = np.sqrt(K / Qcal)
    return FieldState(state.model, state.grid.scaled(lam), amp * state.components, state.t)


def scale_to_solution(state: FieldState, xi1: float, omega: float) -> tuple[FieldState, float]:
    """Map a normalized (K = Qcal = 1) minimizer onto the stationary branch.

    Applies the amplitude 2 xi1 / (6-n) and dilation sqrt((6-n)/n) under
    which the quotient-minimizing profile solves the elliptic system; the
    discrete residual of the image is returned alongside it.
    """
    n = state.grid.n
    if n >= 6:
        raise ValueError("no stationary branch for n >= 6")
    t0 = 2.0 * xi1 / (6.0 - n)
    lam0 = np.sqrt((6.0 - n) / n)
    out = FieldState(state.model, state.grid.scaled(lam0), t0 * state.components, state.t)
    res = elliptic_residual(state.model, out.grid, np.real(out.components),
                            state.model.coeffs.b(omega))
    return out, res


def xi1_of(result: GroundStateResult, n: int | None = None) -> float:
    """Closed-form sharp quotient from the converged profile's Qcal."""
    return functionals.weinstein_infimum(result.Qcal, result.grid.n if n is None else n)


# ---------------------------------------------------------------------------
# charge-constrained energy minimization


@dataclass(frozen=True)
class ConstrainedMinResult:
    nu: float
    minimizer: FieldState
    I_nu: float
    lagrange_theta: float   # K - 3P = theta Q at the minimizer
    lagrange_omega: float   # the frequency -theta of the recovered profile
    residual: float         # Euler-Lagrange residual sup norm
    iterations: int


def constrained_minimize(model: ModelSpec, nu: float, grid: GridSpec,
                         tau: float = 0.2, tol: float = 1e-9,
                         max_iter: int = 100000,
                         init: np.ndarray | None = None) -> ConstrainedMinResult:
    """Minimize the energy at fixed charge nu by renormalized gradient flow.

    Each sweep takes a semi-implicit descent step: backward Euler on the
    dispersive part, explicit quadratic term, and the current multiplier
    estimate theta = (K - 3P)/nu carried along so the step is tangential to
    the charge sphere; a global rescale then restores Q = nu exactly.  With
    the multiplier inside the step the fixed points of the sweep solve the
    constrained Euler-Lagrange equation exactly for any tau (a plain
    renormalized step would leave an O(tau) bias).  tau is halved whenever
    the energy fails to decrease.  Convergence is declared on the sup norm
    of the Euler-Lagrange residual.
    """
    if grid.n > 3:
        raise ValueError("the constrained problem is posed for 1 <= n <= 3")
    if nu <= 0:
        raise ValueError("nu must be positive")
    w_charge = (model.coeffs.alpha**2 / model.coeffs.gamma)
    shape_ones = (1,) * len(grid.shape)
    gam = model.coeffs.gamma.reshape((model.l,) + shape_ones)
    bet = model.coeffs.beta.reshape((model.l,) + shape_ones)
    wc = w_charge.reshape((model.l,) + shape_ones)

    def functionals_of(phi):
        state = FieldState(model, grid, phi, 0.0)
        return functionals.kinetic(state), functionals.interaction(state)

    phi = np.array(init, dtype=float) if init is not None \
        else _default_init(model, grid, np.ones(model.l))
    phi *= np.sqrt(nu / grids.weighted_norm_sq(grid, w_charge, phi))
    K, P = functionals_of(phi)
    E = K + functionals.linear_term(FieldState(model, grid, phi, 0.0)) - 2 * P

    solver_cache: dict[float, object] = {}
    iterations = 0
    residual = np.inf
    theta = (K - 3.0 * P) / nu
    while iterations < max_iter:
        iterations += 1
        f = model.eval_fk(phi).real
        # (-gamma Lap + beta + 1/tau) trial = phi/tau + f + theta w phi
        solver = solver_cache.get(tau)
        if solver is None:
            solver = _linear_solver(model, grid, 1.0 / tau + model.coeffs.beta)
            solver_cache[tau] = solver
        trial = solver(phi / tau + f + theta * wc * phi)
        trial *= np.sqrt(nu / grids.weighted_norm_sq(grid, w_charge, trial))
        K, P = functionals_of(trial)
        L = grids.weighted_norm_sq(grid, model.coeffs.beta, trial)
        E_new = K + L - 2.0 * P
        if E_new > E + 1e-12 * max(1.0, abs(E)):
            tau *= 0.5
            if tau < 1e-5:
                break
            continue
        phi, E = trial, E_new
        theta = (K - 3.0 * P) / nu
        if iterations % 20 == 0 or iterations < 10:
            f = model.eval_fk(phi).real
            el = -gam * grids.apply_laplacian(grid, phi) + bet * phi - f - theta * wc * phi
            residual = float(np.max(np.abs(el)))
            if residual < tol:
                break
    state = FieldState(model, grid, phi, 0.0)
    if residual > max(tol, 1e-6):
        raise ConvergenceError(
            f"constrained flow stalled: EL residual {residual:.3e} after {iterations} sweeps")
    return ConstrainedMinResult(nu=nu, minimizer=state, I_nu=E,
                                lagrange_theta=theta, lagrange_omega=-theta,
                                residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# instability constructions


@dataclass(frozen=True)
class InstabilityData5D:
    """Dilation diagnostics of a five-dimensional profile: the critical
    dilation parameter, sampled values of K - (5/2)P along the dilation
    family, and the action level m attained on its zero set."""

    lambda_star: float
    lambdas: tuple[float, ...]
    T_at_lambda: tuple[float, ...]
    m: float


def instability_data(profile: FieldState, lambdas=(0.8, 1.2, 1.5, 2.0),
                     omega: float = 1.0) -> InstabilityData5D:
    samples = tuple(functionals.virial_functional(mass_preserving_dilation(profile, lam))
                    for lam in lambdas)
    return InstabilityData5D(lambda_star=lambda_star(profile),
                             lambdas=tuple(float(v) for v in lambdas),
                             T_at_lambda=samples,
                             m=functionals.action(profile, omega))


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


def instability_initializer(profile: FieldState, eps_or_lambda: float) -> FieldState:
    """Dimension-dispatched unstable datum: (1+eps) psi at n=4, the
    mass-preserving dilation at n=5."""
    n = profile.grid.n
    if n == 4:
        return amplified_initializer(profile, eps_or_lambda)[0]
    if n == 5:
        return dilated_initializer(profile, eps_or_lambda)
    raise ValueError("instability constructions exist for n = 4 and n = 5")


# ---------------------------------------------------------------------------
# distances modulo the symmetry group


def _phase_period(sigma: np.ndarray) -> float:
    denors = [Fraction(float(s)).limit_denominator(64).denominator for s in sigma]
    q = 1
    for d in denors:
        q = q * d // np.gcd(q, d)
    return 2.0 * np.pi * q


def _best_phase(sigma: np.ndarray, c: np.ndarray, period: float) -> float:
    """max over theta of Re sum_k exp(-i sigma_k theta) c_k."""
    thetas = np.linspace(0.0, period, 2048, endpoint=False)
    g = np.real(np.exp(-1j * np.outer(thetas, sigma)) @ c)
    j = int(np.argmax(g))
    # parabolic refinement on the periodic samples
    gm, g0, gp = g[j - 1], g[j], g[(j + 1) % g.size]
    denom = gm - 2 * g0 + gp
    delta = 0.5 * (gm - gp) / denom if denom != 0 else 0.0
    step = thetas[1] - thetas[0]
    theta = thetas[j] + delta * step
    return float(np.real(np.exp(-1j * sigma * theta) @ c))


def spectral_shift(grid: GridSpec, values: np.ndarray, y: float) -> np.ndarray:
    """Periodic translation by y on a Cartesian n=1 grid (band-limited exact)."""
    if grid.kind != grids.CARTESIAN or grid.n != 1:
        raise ValueError("spectral translation is a 1-d Cartesian operation")
    k = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    return np.fft.ifft(np.fft.fft(values, axis=-1) * np.exp(-1j * k * y), axis=-1)


def modulated_distance(state: FieldState, reference: FieldState,
                       relative: bool = True) -> float:
    """L2 distance to the reference profile minimized over translations (1-d
    Cartesian grids) and the coupled phase action e^{i sigma_k theta}."""
    if state.grid != reference.grid:
        raise ValueError("states must share one grid")
    grid = state.grid
    sigma = state.model.coeffs.sigma
    period = _phase_period(sigma)
    w = grids.quadrature_weights(grid)
    u = state.components
    psi = reference.components
    nu2 = float(sum(grids.norm_sq(grid, u[k]) for k in range(state.l)))
    np2 = float(sum(grids.norm_sq(grid, psi[k]) for k in range(state.l)))

    def overlap_at(shift: float | None) -> float:
        if shift is None:
            c = np.array([np.sum(w * u[k] * np.conj(psi[k])) for k in range(state.l)])
            return _best_phase(sigma, c, period)
        ps = np.stack([spectral_shift(grid, psi[k], shift) for k in range(state.l)])
        c = np.array([np.sum(w * u[k] * np.conj(ps[k])) for k in range(state.l)])
        return _best_phase(sigma, c, period)

    if grid.kind == grids.CARTESIAN and grid.n == 1:
        corr = np.stack([np.fft.ifft(np.fft.fft(u[k]) * np.conj(np.fft.fft(psi[k]))) * grid.h
                         for k in range(state.l)])
        thetas = np.linspace(0.0, period, 256, endpoint=False)
        g = np.real(np.tensordot(np.exp(-1j * np.outer(thetas, sigma)), corr, axes=(1, 0)))
        j = int(np.unravel_index(np.argmax(g), g.shape)[1])
        y0 = j * grid.h
        # parabolic refinement of the shift around the best grid offset
        vals = [overlap_at(y0 - grid.h), overlap_at(y0), overlap_at(y0 + grid.h)]
        denom = vals[0] - 2 * vals[1] + vals[2]
        delta = 0.5 * (vals[0] - vals[2]) / denom if denom != 0 else 0.0
        best = overlap_at(y0 + delta * grid.h)
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
            dm, d0, dp = dens[j - 1], dens[j], dens[(j + 1) % dens.size]
            denom = dm - 2 * d0 + dp
            delta = 0.5 * (dm - dp) / denom if denom != 0 else 0.0
            return (j + delta) * grid.h
        shift = peak(state.components) - peak(reference.components)
        moved = np.stack([spectral_shift(grid, state.components[k], -shift)
                          for k in range(state.l)])
    else:
        moved = state.components
    return float(np.max(np.abs(moved - reference.components)))


# ---------------------------------------------------------------------------
# ground-state archive files (snapshot + text trailer)


def write_groundstate_archive(result: GroundStateResult, path) -> None:
    grids.write_snapshot(result.state, path)
    dev = ",".join(repr(float(d)) for d in result.pohozaev_dev)
    lines = ["",
             f"omega={result.omega!r}",
             f"I={result.I!r}", f"K={result.K!r}", f"Qcal={result.Qcal!r}",
             f"P={result.P!r}", f"Q={result.Q!r}", f"J={result.J!r}",
             f"residual={result.residual!r}", f"iterations={result.iterations}",
             f"restarts={result.restarts}", f"pohozaev_dev={dev}",
             "[model]"] + model_lines(result.model)
    with open(path, "ab") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _deviations(text: str) -> tuple[float, float, float]:
    dev = tuple(float(v) for v in text.split(","))
    if len(dev) != 3:
        raise ValueError(f"expected 3 values, got {len(dev)}")
    return dev


def read_groundstate_archive(path) -> GroundStateResult:
    """Read an archive; a malformed one raises ValueError naming the file and
    the field.  An archive without a restarts line reads as 0 restarts."""
    grid, comps, _, trailer = grids.read_snapshot_raw(path, return_trailer=True)
    head, _, model_part = trailer.partition("[model]")
    spec = dict.fromkeys(("omega", "residual", "K", "Qcal", "P", "Q", "I", "J"), float)
    spec.update(iterations=int, restarts=int, pohozaev_dev=_deviations)
    try:
        model = parse_model_lines(model_part.strip().splitlines())
        kv = parse_fields(["restarts=0"] + head.strip().splitlines(), spec)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return GroundStateResult(model=model, grid=grid, profile=np.real(comps), **kv)
