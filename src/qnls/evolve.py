"""Time integration of the coupled system and its closed-form references.

The system splits into a linear dispersive part and a pointwise quadratic
part,

    d_t u_k = (i/alpha_k) (gamma_k Lap u_k - beta_k u_k)   [linear]
    d_t u_k = (i/alpha_k) f_k(u)                           [nonlinear]

and is stepped with Strang composition: a half step of the nonlinear ODE by
classical RK4, a full linear step, another nonlinear half step.  The
trailing half step of one step and the leading one of the next are taken as
one RK4 substep at fixed and adaptive dt alike: an attempt is
L(dt) N(owed + dt/2), owed being the half step the last accepted one left
due, and N(owed) is applied on the side only for samples and the final
state.  This halves the nonlinear work and differs from plain Strang steps
only by RK4 truncation.  The RK4 stages are built in three stage buffers
owned by the stepper (stage input, current slope, running slope sum) with
in-place ufuncs, the couplings are written straight into the slope buffer,
and only the result of a substep is a new array; a step's input is never
written.  Every stage operation is pointwise, so a substep runs over the
flattened grid in blocks of RK4_BLOCK points, each block through all four
stages before the next: the stage buffers, and the conjugates and scratch
row of the couplings, are block-sized, so the stages work in cache rather
than streaming three grid-sized stacks through memory.  Each block runs the
same operations in the same order, so the result does not depend on the
block size, bit for bit.  The linear step is :func:`qnls.grids.propagator`,
built once per step size: exact Fourier phases on Cartesian grids,
Crank-Nicolson on the finite-volume Laplacian on radial grids.  Either way
the linear substep keeps the discrete charge and the scheme is globally
second order in dt.

The nonlinear substep leaves the pointwise weighted density
sum_k (alpha_k^2/gamma_k) |u_k|^2 invariant whenever the couplings satisfy
the phase-balance identity Im sum_k (alpha_k/gamma_k) f_k(u) conj(u_k) = 0,
so charge drift comes only from the RK4 truncation (O(dt^5) per step).

Blow-up is detected through the norm-divergence alternative: the run is
flagged once the kinetic functional exceeds a configured multiple of its
initial value, a sup norm passes a cap, or adaptive halving drives dt below
its floor.  Non-finite values abort the run.  Full functional snapshots are
taken only at sample times; in adaptive mode every step checks just the
charge (already computed by the step-size controller), the kinetic
functional and the sup norm, on the state after the linear substep, so
neither the controller nor the monitors depend on where samples fall.

The closed-form references are the standing wave e^{i sigma_k omega t} psi_k
and the n = 4 self-similar blow-up family, whose one entry point
:func:`pseudo_conformal_with_rate` returns the state and its time
derivative; :func:`pde_residual` scores either against the discrete system.
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

# grid points per RK4 block: 3 stage buffers of a 3-component block hold
# 1.2 MB; blocks of 2048, 4096 and 16384 ran slower at 128^2 and 256^2 on a
# 2-core Xeon with 2 MiB of L2 per core
RK4_BLOCK = 8192


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t_end: float
    sample_every: int = 10
    blowup_K_factor: float = 1e6
    blowup_linf: float = 1e8
    adaptive: bool = False
    dt_min: float = 1e-7
    step_drift_tol: float = 1e-8  # per-step charge drift (the RK4 truncation) that halves dt

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
    when the run reached t_end.  In adaptive mode the monitors read every
    step's state after the linear substep, before the half step it still
    owes, so a cap can be passed one accepted step later than on the
    synchronized state.  rejected counts adaptive step attempts discarded
    by the charge-drift controller; steps counts accepted ones.
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
    """Strang-splitting stepper bound to one model and grid.

    Its three RK4 stage buffers hold one block of min(RK4_BLOCK, grid.size)
    points per component, not the whole grid, so on grids larger than a
    block the nonlinear substep runs in cache and the buffers no longer grow
    with the grid (0.375 of a state stack at 256^2).
    """

    def __init__(self, model, grid: GridSpec):
        self.model = model
        self.grid = grid
        self._ia = (1j / model.coeffs.alpha)[:, None]
        self._propagators: dict[float, object] = {}  # per dt, see grids.propagator
        self._stages = np.empty((3, model.l, min(RK4_BLOCK, grid.size)), dtype=complex)

    # -- linear substep ----------------------------------------------------

    def linear_step(self, comps: np.ndarray, dt: float, overwrite_x: bool = False) -> np.ndarray:
        step = self._propagators.get(dt)
        if step is None:
            c = self.model.coeffs
            step = self._propagators[dt] = grids.propagator(self.grid, dt, c.alpha, c.beta,
                                                            c.gamma)
        return step(comps, overwrite_x)

    # -- nonlinear substep ---------------------------------------------------

    def _rhs(self, comps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(i/alpha_k) f_k(comps), written into out."""
        self.model.eval_fk(comps, out=out)
        return np.multiply(out, self._ia, out=out)

    def nonlinear_half_step(self, comps: np.ndarray, dt: float) -> np.ndarray:
        """comps + (h/6)(k1 + 2 k2 + 2 k3 + k4) with h = dt/2, as a new array.

        The slopes are summed in that order as they come, so three stage
        buffers suffice: y (stage input), k (current slope), acc (sum).
        They are block-sized: the state is viewed as (l, points) and each
        block of RK4_BLOCK points runs all four stages, written into its
        slice of the result, so the stages stay in cache on large grids.
        """
        u = comps.reshape(self.model.l, -1)
        result = np.empty(u.shape, dtype=complex)
        h = 0.5 * dt
        for start in range(0, u.shape[1], RK4_BLOCK):
            block = slice(start, start + RK4_BLOCK)
            z = u[:, block]
            y, k, acc = self._stages[:, :, :z.shape[1]]
            self._rhs(z, out=acc)                                  # k1
            np.add(z, np.multiply(acc, 0.5 * h, out=y), out=y)
            self._rhs(y, out=k)                                    # k2
            np.add(z, np.multiply(k, 0.5 * h, out=y), out=y)
            np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
            self._rhs(y, out=k)                                    # k3
            np.add(z, np.multiply(k, h, out=y), out=y)
            np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
            self._rhs(y, out=k)                                    # k4
            np.add(acc, k, out=acc)
            np.add(z, np.multiply(acc, h / 6.0, out=acc), out=result[:, block])
        return result.reshape(comps.shape)

    def step(self, comps: np.ndarray, dt: float, owed: float = 0.0) -> np.ndarray:
        """One step attempt L(dt) N(owed + dt/2) comps, as a new array.

        The trailing half step N(dt/2) of a Strang step is left owed: the
        next attempt absorbs it as owed = dt/2 (adjacent flows of one
        splitting compose), and nonlinear_half_step(result, dt) completes
        the step.  The linear substep reuses the nonlinear result's memory,
        so no second state array is held beside comps (kept for a retry)."""
        return self.linear_step(self.nonlinear_half_step(comps, 2.0 * owed + dt), dt,
                                overwrite_x=True)


def run_with_monitors(state: FieldState, config: EvolveConfig,
                      with_variance: bool = True) -> EvolutionOutcome:
    """Step the state to t_end sampling functionals, with blow-up detection.

    Adaptive mode halves dt whenever the per-step charge drift exceeds the
    configured tolerance (the quadratic coupling stiffens as amplitudes
    grow) and doubles it back after a stretch of clean steps; dt dropping
    below dt_min counts as blow-up, as do the kinetic and sup-norm caps,
    which in adaptive mode are checked every step.  One loop serves both
    modes: it carries x, the state after the last linear substep, and owed,
    half the last accepted dt; each attempt is Stepper.step(x, dt, owed),
    and a rejected one retries from the same x and owed.  The synchronized
    state N(owed) x is computed on the side, only for a snapshot (every
    sample_every steps and at t_end) and for the final state; the adaptive
    controller and monitors read x.  So neither mode's outcome depends on
    sample_every beyond the diagnostics kept.
    """
    stepper = Stepper(state.model, state.grid)
    # the adaptive monitors: functionals.charge and .kinetic of the bare stack x
    charge_weights, gamma = state.model.coeffs.charge_weights, state.model.coeffs.gamma
    # x is the state after the last linear substep, still owing the half step
    # N(owed); synced is the FieldState of N(owed) x, made only when needed
    x, synced = state.components, state
    owed, t = 0.0, state.t
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
        # a last step within eps_end of dt is taken at dt, so a rounding-short
        # t_end - t builds no second propagator, and t lands on t_end
        dt_eff = dt if t_end - t > dt - eps_end else t_end - t
        new = stepper.step(x, dt_eff, owed)
        if config.adaptive:
            while True:
                q_new = grids.weighted_norm_sq(state.grid, charge_weights, new)
                drift = abs(q_new - q_prev) / max(abs(q_prev), tiny)
                if drift <= config.step_drift_tol or not math.isfinite(drift):
                    break
                rejected += 1
                dt = dt_eff = dt_eff / 2.0
                dt_smallest = min(dt_smallest, dt)
                clean_steps = 0
                if dt_eff < config.dt_min:
                    break
                new = stepper.step(x, dt_eff, owed)
            if dt_eff < config.dt_min:
                status, t_detect, monitor = BLOWN_UP, t, "dt_floor"
                break
            q_prev = q_new
            clean_steps += 1
            if clean_steps >= 16 and dt < config.dt:
                dt = min(2.0 * dt, config.dt)
                clean_steps = 0
            amp = float(np.max(np.abs(new)))
            if not math.isfinite(amp):
                status, t_detect, monitor = ABORTED, t, "nonfinite"
                break
        x, owed, synced = new, 0.5 * dt_eff, None
        t = t_end if abs(t_end - t - dt_eff) <= eps_end else t + dt_eff
        steps += 1
        sample = steps % config.sample_every == 0 or t >= t_end - eps_end
        if sample:
            # FieldState copies its components: the substep's own array is
            # freed before snapshot_of runs
            synced = state.with_components(stepper.nonlinear_half_step(x, 2.0 * owed), t)
            snap = snapshot_of(synced, with_variance=with_variance)
            diag.append(snap)
        if config.adaptive:
            # blow-up is fast once started: watch the cheap monitors on x
            # every step, samples or not
            Q, K, linf = q_new, grids.weighted_grad_sq(state.grid, gamma, x), (amp,)
        elif sample:
            Q, K, linf = snap.Q, snap.K, snap.linf
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
    final = synced
    if final is None:
        final = state.with_components(stepper.nonlinear_half_step(x, 2.0 * owed), t)
    return EvolutionOutcome(status=status, final=final, diagnostics=diag,
                            t_detect=t_detect, steps=steps, dt_final=dt,
                            monitor=monitor, rejected=rejected, dt_smallest=dt_smallest)


# ---------------------------------------------------------------------------
# closed-form references


def standing_wave(profile: FieldState, omega: float, t: float) -> FieldState:
    """Phase-rotated profile e^{i (alpha_k/gamma_k) omega t} psi_k."""
    sigma = profile.model.coeffs.sigma
    shape_ones = (1,) * len(profile.grid.shape)
    phases = np.exp(1j * sigma * omega * t).reshape((profile.l,) + shape_ones)
    return FieldState(profile.model, profile.grid, phases * profile.components, t)


def pseudo_conformal_with_rate(profile: FieldState, T: float, t: float):
    """Explicit blow-up family from a four-dimensional frequency-1 profile:
    the state at time t and its time derivative du/dt at fixed r.

    The fields live on the self-similarly shrunk copy of the profile grid
    (nodes r_i = (T-t) rho_i), which keeps the rescaled profile resolved
    uniformly in t and makes the discrete charge exactly t-independent.
    Valid for 0 <= t < T on radial n=4 grids of a beta=0 model.
    """
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
    dpsi = np.zeros_like(psi)  # central d/dr, even at r = 0, Dirichlet at R_max
    dpsi[:, 1:-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * grid.h)
    dpsi[:, -1] = -psi[:, -2] / (2.0 * grid.h)
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
    shape_ones = (1,) * len(grid.shape)
    a = model.coeffs.alpha.reshape((model.l,) + shape_ones)
    lhs = grids.shifted_apply(grid, model.coeffs.beta, model.coeffs.gamma, state.components)
    res = 1j * a * dudt - lhs + model.eval_fk(state.components)
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
