"""Time integration of the coupled system and its closed-form references.

The system splits into a linear dispersive part and a pointwise quadratic
part,

    d_t u_k = (i/alpha_k) (gamma_k Lap u_k - beta_k u_k)   [linear]
    d_t u_k = (i/alpha_k) f_k(u)                           [nonlinear]

and is stepped with Strang composition: a half step of the nonlinear ODE by
classical RK4, a full linear step, another nonlinear half step.  The RK4
stages are built in three stage buffers owned by the stepper (stage input,
current slope, running slope sum) with in-place ufuncs, the couplings are
written straight into the slope buffer, and only the result of a substep
is a new array; the input of a substep is never written.  On
Cartesian grids the linear step is the exact Fourier multiplier
exp(i dt (-gamma_k |xi|^2 - beta_k)/alpha_k); on radial grids it is a
Crank-Nicolson step on the tridiagonal finite-difference Laplacian A_h
(unconditionally stable, second order).  With c_k = i dt/(2 alpha_k) and
M_k = (1 + c_k beta_k) I - c_k gamma_k A_h it solves

    M_k u_k' = (1 - c_k beta_k) u_k + c_k gamma_k A_h u_k = 2 u_k - M_k u_k,

that is u_k' = 2 M_k^{-1} u_k - u_k, so no right-hand side is formed: one
block-tridiagonal solve over the stacked components, with LU factors of
the M_k computed once per step size and kept per dt, then one update.
Either way the scheme is globally second order in dt.

The nonlinear substep leaves the pointwise weighted density
sum_k (alpha_k^2/gamma_k) |u_k|^2 invariant whenever the couplings satisfy
the phase-balance identity Im sum_k (alpha_k/gamma_k) f_k(u) conj(u_k) = 0,
so charge drift comes only from the RK4 truncation (O(dt^5) per step) and,
on radial grids, the mild non-normality of the difference operator.

Blow-up is detected through the norm-divergence alternative: the run is
flagged once the kinetic functional exceeds a configured multiple of its
initial value, a sup norm passes a cap, or adaptive halving drives dt below
its floor.  Non-finite values abort the run.  Full functional snapshots are
taken only at sample times; in adaptive mode the steps between samples
check just the charge (already computed by the step-size controller), the
kinetic functional and the sup norm, on the raw component array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grids
from .functionals import FunctionalSnapshot, snapshot_of
from .grids import FieldState, GridSpec

COMPLETED = "completed"
BLOWN_UP = "blown_up"
ABORTED = "aborted"


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t_end: float
    sample_every: int = 10
    blowup_K_factor: float = 1e6
    blowup_linf: float = 1e8
    adaptive: bool = False
    dt_min: float = 1e-7
    step_drift_tol: float = 1e-8  # per-step charge drift triggering dt halving

    def __post_init__(self):
        if not 0 < self.dt <= self.t_end:
            raise ValueError("need 0 < dt <= t_end")
        if self.adaptive and not self.dt_min < self.dt:
            raise ValueError("need dt_min < dt for adaptive stepping")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


class DiagnosticsSeries:
    """Time-ordered functional snapshots with strictly increasing t."""

    def __init__(self, snapshots=()):
        self._snaps: list[FunctionalSnapshot] = []
        for s in snapshots:
            self.append(s)

    def append(self, snap: FunctionalSnapshot) -> None:
        if self._snaps and snap.t <= self._snaps[-1].t:
            raise ValueError("snapshot times must be strictly increasing")
        self._snaps.append(snap)

    def __len__(self):
        return len(self._snaps)

    def __iter__(self):
        return iter(self._snaps)

    def __getitem__(self, i):
        return self._snaps[i]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self._snaps])

    def max_relative_drift(self, name: str) -> float:
        vals = self.column(name)
        ref = vals[0]
        scale = abs(ref) if ref != 0 else 1.0
        return float(np.max(np.abs(vals - ref)) / scale)


@dataclass
class EvolutionOutcome:
    """Result of a monitored run.

    monitor names the check that ended the run: "kinetic" (K passed its
    multiple of K(0)), "linf" (a sup norm passed its cap), "dt_floor"
    (adaptive halving went below dt_min), "nonfinite" (aborted), or None
    when the run reached t_end.  rejected counts adaptive step attempts
    discarded by the charge-drift controller; steps counts accepted ones.
    dt_smallest is the smallest step size the controller reached (the
    configured dt when it never halved); after "dt_floor" it is the size
    that fell below dt_min.
    """

    status: str
    final: FieldState
    diagnostics: DiagnosticsSeries
    t_detect: float | None = None
    steps: int = 0
    dt_final: float = field(default=float("nan"))
    monitor: str | None = None
    rejected: int = 0
    dt_smallest: float = field(default=float("nan"))

    def as_json(self) -> dict:
        return {"status": self.status, "monitor": self.monitor, "t_detect": self.t_detect,
                "steps": self.steps, "rejected": self.rejected, "dt_final": self.dt_final,
                "dt_smallest": self.dt_smallest}


class Stepper:
    """Strang-splitting stepper bound to one model and grid."""

    def __init__(self, model, grid: GridSpec):
        self.model = model
        self.grid = grid
        shape_ones = (1,) * len(grid.shape)
        self._ia = (1j / model.coeffs.alpha).reshape((model.l,) + shape_ones)
        self._charge_weights = model.coeffs.alpha**2 / model.coeffs.gamma
        # per dt: Fourier phases (Cartesian) or the factored solver (radial)
        self._lin_cache: dict[float, object] = {}
        self._stages = np.empty((3, model.l) + grid.shape, dtype=complex)

    # -- linear substep ----------------------------------------------------

    def _linear_data(self, dt: float):
        data = self._lin_cache.get(dt)
        if data is not None:
            return data
        model, grid = self.model, self.grid
        if grid.kind == grids.CARTESIAN:
            ksq = grids._cartesian_ksq(grid)
            phases = np.stack([
                np.exp(1j * dt / model.coeffs.alpha[k]
                       * (-model.coeffs.gamma[k] * ksq - model.coeffs.beta[k]))
                for k in range(model.l)])
            data = phases
        else:
            c = 1j * dt / (2.0 * model.coeffs.alpha)
            data = grids.radial_shifted_solver(grid, 1.0 + c * model.coeffs.beta,
                                               c * model.coeffs.gamma)
        self._lin_cache[dt] = data
        return data

    def linear_step(self, comps: np.ndarray, dt: float) -> np.ndarray:
        grid = self.grid
        if grid.kind == grids.CARTESIAN:
            phases = self._linear_data(dt)
            axes = tuple(range(-grid.n, 0))
            return np.fft.ifftn(phases * np.fft.fftn(comps, axes=axes), axes=axes)
        out = self._linear_data(dt)(comps)  # M^{-1} u, a new array
        out *= 2.0
        out -= comps
        return out

    # -- adaptive monitors ---------------------------------------------------

    def charge(self, comps: np.ndarray) -> float:
        """functionals.charge of a component stack, without a FieldState."""
        return grids.weighted_norm_sq(self.grid, self._charge_weights, comps)

    def kinetic(self, comps: np.ndarray) -> float:
        """functionals.kinetic of a component stack, without a FieldState."""
        return grids.weighted_grad_sq(self.grid, self.model.coeffs.gamma, comps)

    # -- nonlinear substep ---------------------------------------------------

    def _rhs(self, comps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(i/alpha_k) f_k(comps), written into out."""
        self.model.eval_fk(comps, out=out)
        return np.multiply(out, self._ia, out=out)

    def nonlinear_half_step(self, comps: np.ndarray, dt: float) -> np.ndarray:
        """comps + (h/6)(k1 + 2 k2 + 2 k3 + k4) with h = dt/2, as a new array.

        The slopes are summed in that order as they come, so three stage
        buffers suffice: y (stage input), k (current slope), acc (sum).
        """
        y, k, acc = self._stages
        h = 0.5 * dt
        self._rhs(comps, out=acc)                                  # k1
        np.add(comps, np.multiply(acc, 0.5 * h, out=y), out=y)
        self._rhs(y, out=k)                                        # k2
        np.add(comps, np.multiply(k, 0.5 * h, out=y), out=y)
        np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
        self._rhs(y, out=k)                                        # k3
        np.add(comps, np.multiply(k, h, out=y), out=y)
        np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
        self._rhs(y, out=k)                                        # k4
        np.add(acc, k, out=acc)
        return np.add(comps, np.multiply(acc, h / 6.0, out=acc))

    def step(self, comps: np.ndarray, dt: float) -> np.ndarray:
        c = self.nonlinear_half_step(comps, dt)
        c = self.linear_step(c, dt)
        return self.nonlinear_half_step(c, dt)


def run_with_monitors(state: FieldState, config: EvolveConfig,
                      with_variance: bool = True) -> EvolutionOutcome:
    """Step the state to t_end sampling functionals, with blow-up detection.

    Adaptive mode halves dt whenever the per-step charge drift exceeds the
    configured tolerance (the quadratic coupling stiffens as amplitudes
    grow) and doubles it back after a stretch of clean steps; dt dropping
    below dt_min counts as blow-up, as do the kinetic and sup-norm caps,
    which in adaptive mode are checked every step.  A full snapshot is taken
    only at sample times (every sample_every steps and at t_end), so the
    outcome does not depend on sample_every beyond the diagnostics kept.
    """
    stepper = Stepper(state.model, state.grid)
    comps = np.array(state.components)
    t = state.t
    t_end = state.t + config.t_end
    dt = dt_smallest = config.dt
    diag = DiagnosticsSeries([snapshot_of(state, with_variance=with_variance)])
    tiny = np.finfo(float).tiny
    K0 = max(diag[0].K, tiny)
    q_prev = diag[0].Q
    status, t_detect, monitor = COMPLETED, None, None
    steps = rejected = clean_steps = 0
    eps_end = 1e-12 * max(1.0, abs(t_end))
    while t < t_end - eps_end:
        dt_eff = min(dt, t_end - t)
        new = stepper.step(comps, dt_eff)
        if config.adaptive:
            while True:
                q_new = stepper.charge(new)
                drift = abs(q_new - q_prev) / max(abs(q_prev), tiny)
                if drift <= config.step_drift_tol or not math.isfinite(drift):
                    break
                rejected += 1
                dt = dt_eff = dt_eff / 2.0
                dt_smallest = min(dt_smallest, dt)
                clean_steps = 0
                if dt_eff < config.dt_min:
                    break
                new = stepper.step(comps, dt_eff)
            if dt_eff < config.dt_min:
                status, t_detect, monitor = BLOWN_UP, t, "dt_floor"
                break
            q_prev = q_new
            clean_steps += 1
            if clean_steps >= 16 and dt < config.dt:
                dt = min(2.0 * dt, config.dt)
                clean_steps = 0
            # blow-up is fast once started: watch the cheap monitors per step
            amp = float(np.max(np.abs(new)))
            if not math.isfinite(amp):
                status, t_detect, monitor = ABORTED, t, "nonfinite"
                break
            if amp > config.blowup_linf:
                comps, t = new, t + dt_eff
                status, t_detect, monitor = BLOWN_UP, t, "linf"
                break
        comps = new
        t += dt_eff
        steps += 1
        if steps % config.sample_every == 0 or t >= t_end - eps_end:
            snap = snapshot_of(state.with_components(comps, t), with_variance=with_variance)
            diag.append(snap)
            Q, K, linf = snap.Q, snap.K, snap.linf
        elif config.adaptive:
            Q, K, linf = q_new, stepper.kinetic(new), (amp,)
        else:
            continue
        if not all(map(math.isfinite, (Q, K, *linf))):
            status, t_detect, monitor = ABORTED, t, "nonfinite"
            break
        if K > config.blowup_K_factor * K0:
            status, t_detect, monitor = BLOWN_UP, t, "kinetic"
            break
        if max(linf) > config.blowup_linf:
            status, t_detect, monitor = BLOWN_UP, t, "linf"
            break
    final = state.with_components(comps, t)
    return EvolutionOutcome(status=status, final=final, diagnostics=diag,
                            t_detect=t_detect, steps=steps, dt_final=dt,
                            monitor=monitor, rejected=rejected, dt_smallest=dt_smallest)


# ---------------------------------------------------------------------------
# closed-form references


def apply_quadratic_chirp(state: FieldState, b: float) -> FieldState:
    """Multiply by the focusing phases e^{-i b sigma_k |x|^2}.

    The sigma_k weights keep the chirp inside the coupled phase family, so it
    changes neither the charge nor the interaction term; it seeds an inward
    flux (negative variance rate) used to prepare negative- or zero-energy
    data for finite-time-collapse runs.
    """
    sigma = state.model.coeffs.sigma
    rsq = grids.radius_sq(state.grid)
    phases = np.exp(-1j * b * sigma.reshape((state.l,) + (1,) * rsq.ndim) * rsq)
    return FieldState(state.model, state.grid, phases * state.components, state.t)


def standing_wave(profile: FieldState, omega: float, t: float) -> FieldState:
    """Phase-rotated profile e^{i (alpha_k/gamma_k) omega t} psi_k."""
    sigma = profile.model.coeffs.sigma
    shape_ones = (1,) * len(profile.grid.shape)
    phases = np.exp(1j * sigma * omega * t).reshape((profile.l,) + shape_ones)
    return FieldState(profile.model, profile.grid, phases * profile.components, t)


def standing_wave_with_rate(profile: FieldState, omega: float, t: float):
    state = standing_wave(profile, omega, t)
    sigma = profile.model.coeffs.sigma
    shape_ones = (1,) * len(profile.grid.shape)
    rate = (1j * sigma * omega).reshape((profile.l,) + shape_ones) * state.components
    return state, rate


def pseudo_conformal_solution(profile: FieldState, T: float, t: float) -> FieldState:
    """Explicit blow-up family from a four-dimensional frequency-1 profile.

    The fields live on the self-similarly shrunk copy of the profile grid
    (nodes r_i = (T-t) rho_i), which keeps the rescaled profile resolved
    uniformly in t and makes the discrete charge exactly t-independent.
    Valid for 0 <= t < T on radial n=4 grids of a beta=0 model.
    """
    state, _ = pseudo_conformal_with_rate(profile, T, t)
    return state


def pseudo_conformal_with_rate(profile: FieldState, T: float, t: float):
    grid = profile.grid
    if grid.kind != grids.RADIAL or grid.n != 4:
        raise ValueError("the explicit blow-up family needs a radial n=4 profile")
    if np.any(profile.model.coeffs.beta != 0):
        raise ValueError("the transform applies to the beta = 0 system")
    if not 0 <= t < T:
        raise ValueError("need 0 <= t < T")
    s = T - t
    rho = grid.axis()
    sigma = profile.model.coeffs.sigma
    psi = np.real(profile.components)
    dpsi = grids.radial_derivative(grid, psi)
    scaled_grid = grid.scaled(s)
    # at the node r = s rho: phase theta_k = sigma_k (-r^2/(4s) + t/(T s))
    theta = sigma[:, None] * (-s * rho[None, :] ** 2 / 4.0 + t / (T * s))
    amp = np.exp(1j * theta) / s**2
    comps = amp * psi
    # Eulerian time derivative at fixed r: d theta/dt = sigma (1/s^2 - rho^2/4),
    # d rho/dt = rho/s, plus the 2/s amplitude rate
    dtheta = sigma[:, None] * (1.0 / s**2 - rho[None, :] ** 2 / 4.0)
    rate = amp * (2.0 / s * psi + 1j * dtheta * psi + dpsi * rho[None, :] / s)
    return FieldState(profile.model, scaled_grid, comps, t), rate


def pde_residual(state: FieldState, dudt: np.ndarray) -> np.ndarray:
    """Sup norm per component of i alpha_k du_k/dt + gamma_k Lap u_k
    - beta_k u_k + f_k(u) under the discrete spatial operators."""
    model, grid = state.model, state.grid
    lap = grids.apply_laplacian(grid, state.components)
    f = model.eval_fk(state.components)
    shape_ones = (1,) * len(grid.shape)
    a = model.coeffs.alpha.reshape((model.l,) + shape_ones)
    g = model.coeffs.gamma.reshape((model.l,) + shape_ones)
    b = model.coeffs.beta.reshape((model.l,) + shape_ones)
    res = 1j * a * dudt + g * lap - b * state.components + f
    return np.max(np.abs(res), axis=tuple(range(1, res.ndim)))


def virial_check(outcome: EvolutionOutcome, E0: float) -> float:
    """Max relative gap between the second difference of V(t) and the
    conservation-law right-hand side at interior sample times."""
    diag = outcome.diagnostics
    if len(diag) < 3:
        raise ValueError("need at least three samples for a second difference")
    t = diag.column("t")
    V = diag.column("V")
    K = diag.column("K")
    L = diag.column("L")
    n = outcome.final.grid.n
    rhs = 2.0 * n * E0 - 2.0 * n * L + 2.0 * (4.0 - n) * K
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    d2 = 2.0 * (V[2:] / (h2 * (h1 + h2)) - V[1:-1] / (h1 * h2) + V[:-2] / (h1 * (h1 + h2)))
    scale = np.max(np.abs(rhs))
    if scale == 0.0:
        scale = max(np.max(np.abs(d2)), np.finfo(float).tiny)
    return float(np.max(np.abs(d2 - rhs[1:-1])) / scale)
