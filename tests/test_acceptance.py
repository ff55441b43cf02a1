"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The expensive stationary profiles are shared
through module-scoped fixtures; total runtime is a few minutes, dominated by
the five-dimensional monitored runs.
"""

import time

import numpy as np
import pytest

from qnls import functionals as fn
from qnls.evolve import (EvolveConfig, pde_residual, pseudo_conformal_with_rate,
                         run_with_monitors, standing_wave, virial_check)
from qnls.grids import FieldState, GridSpec, norm_sq
from qnls.groundstate import (amplified_initializer, constrained_minimize,
                              dilated_initializer, lambda_star,
                              mass_preserving_dilation, modulated_distance,
                              peak_aligned_linf_error, petviashvili_solve)
from qnls.nonlinearity import CoefficientSet, ModelSpec, Term, builtin_model, validate_model

RADIAL_PARAMS = {1: (1024, 20.0), 2: (1024, 16.0), 3: (1024, 14.0),
                 4: (1536, 14.0), 5: (2048, 12.0)}


def report(num, passed, text):
    print(f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, text


@pytest.fixture(scope="module")
def gs_radial():
    shg3 = builtin_model("shg3")
    out = {}
    for n, (N, R) in RADIAL_PARAMS.items():
        out[n] = petviashvili_solve(shg3, 1.0, GridSpec("radial", n, N, R))
    return out


@pytest.fixture(scope="module")
def gs_radial_fine():
    shg3 = builtin_model("shg3")
    out = {}
    for n, (N, R) in RADIAL_PARAMS.items():
        out[n] = petviashvili_solve(shg3, 1.0, GridSpec("radial", n, 2 * N, R))
    return out


@pytest.fixture(scope="module")
def gs_uv2_resonant():
    return petviashvili_solve(builtin_model("uv2"), 1.0,
                              GridSpec("cartesian", 1, 512, 30.0))


def test_criterion_01_hypothesis_validators():
    t0 = time.perf_counter()
    devs = {}
    for name in ("shg3", "cascade3", "uv2"):
        rep = validate_model(builtin_model(name), seed=0)
        devs[name] = (rep.passed, rep.max_deviation())
    terms = (Term(0.5, (1, 1, 1), (0, 0, 0)), Term(0.5, (0, 0, 0), (1, 1, 1)))
    bad = ModelSpec(coeffs=CoefficientSet(alpha=np.ones(3), gamma=np.ones(3),
                                          beta=np.zeros(3)), terms=terms)
    gauge_dev = validate_model(bad, seed=0).checks["gauge"].deviation
    elapsed = time.perf_counter() - t0
    ok = (all(p and d < 1e-10 for p, d in devs.values())
          and gauge_dev > 0.1 and elapsed < 1.0)
    report(1, ok, f"validators max dev {max(d for _, d in devs.values()):.1e}, "
                  f"counterexample gauge dev {gauge_dev:.2f}, {elapsed:.2f}s")


def test_criterion_02_algebraic_identities():
    worst_balance = worst_degree = 0.0
    for name in ("shg3", "cascade3", "uv2"):
        checks = validate_model(builtin_model(name), seed=0).checks
        worst_balance = max(worst_balance, checks["mass_balance"].deviation)
        worst_degree = max(worst_degree, checks["degree_identity"].deviation)
    ok = worst_balance < 1e-12 and worst_degree < 1e-12
    report(2, ok, f"phase balance {worst_balance:.1e}, "
                  f"degree identity {worst_degree:.1e} over 1000 samples")


def test_criterion_03_exact_elliptic_solution():
    t0 = time.perf_counter()
    m = builtin_model("uv2", kappa=1.0)
    g = GridSpec("cartesian", 1, 1024, 30.0)
    result = petviashvili_solve(m, 1.0, g)
    x = g.axis()
    phi = 1.5 / np.cosh(x / 2.0) ** 2
    exact = FieldState(m, g, np.stack([phi / np.sqrt(2.0), phi / 2.0]).astype(complex),
                       0.0)
    err = peak_aligned_linf_error(result.state, exact)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-6 and result.residual < 1e-8 and elapsed < 10.0
    report(3, ok, f"sup error {err:.1e}, residual {result.residual:.1e}, {elapsed:.1f}s")


def test_criterion_04_pohozaev_suite(gs_radial, gs_radial_fine):
    lines = []
    ok = True
    for n in range(1, 6):
        dev = gs_radial[n].pohozaev_dev
        dev_fine = gs_radial_fine[n].pohozaev_dev
        ratio = max(dev) / max(dev_fine)
        ok &= max(dev) < 1e-3 and 2.5 < ratio < 7.0
        lines.append(f"n={n}: max dev {max(dev):.1e} (x{ratio:.1f} under doubling)")
    report(4, ok, "; ".join(lines))


def test_criterion_05_sharp_quotient_and_inequality(gs_radial):
    ok = True
    lines = []
    for n in range(1, 6):
        gs = gs_radial[n]
        xi1 = fn.weinstein_infimum(gs.Qcal, n)
        rel = abs(gs.J - xi1) / xi1
        ok &= rel < 1e-3
        lines.append(f"n={n} quotient gap {rel:.1e}")
    gs5 = gs_radial[5]
    cop = fn.sharp_constant(gs5.Qcal, 5)
    rng = np.random.default_rng(0)
    r = gs5.grid.axis()
    min_margin = np.inf
    for _ in range(100):
        comps = np.stack([rng.uniform(0.1, 3.0)
                          * np.exp(-(r / rng.uniform(0.5, 2.5)) ** 2)
                          for _ in range(3)]).astype(complex)
        st = FieldState(gs5.model, gs5.grid, comps, 0.0)
        bound = cop * fn.weighted_mass(st, 1.0) ** 0.25 * fn.kinetic(st) ** 1.25
        min_margin = min(min_margin, bound - fn.interaction(st))
    ok &= min_margin >= 0.0
    report(5, ok, "; ".join(lines) + f"; min inequality margin {min_margin:.3e}")


def test_criterion_06_conservation():
    t0 = time.perf_counter()
    m = builtin_model("shg3")
    g = GridSpec("cartesian", 1, 512, 20.0)
    x = g.axis()
    comps = np.stack([np.exp(-x**2), 0.5 * np.exp(-x**2),
                      0.5 * np.exp(-x**2)]).astype(complex)
    st = FieldState(m, g, comps, 0.0)
    drifts = {}
    for dt in (1e-3, 5e-4):
        out = run_with_monitors(st, EvolveConfig(dt=dt, t_end=5.0, sample_every=100),
                                with_variance=False)
        drifts[dt] = (out.diagnostics.max_relative_drift("Q"),
                      out.diagnostics.max_relative_drift("E"))
    elapsed = time.perf_counter() - t0

    def improves(a, b):
        # order >= 2 under halving, or both sitting on the rounding floor
        return b <= a / 3.5 or (a < 1e-10 and b < 1e-10)

    q1, e1 = drifts[1e-3]
    q2, e2 = drifts[5e-4]
    ok = (q1 < 1e-8 and e1 < 1e-6 and improves(q1, q2) and improves(e1, e2)
          and elapsed < 30.0)
    report(6, ok, f"Q drift {q1:.1e} -> {q2:.1e}, E drift {e1:.1e} -> {e2:.1e}, "
                  f"{elapsed:.1f}s")


def test_criterion_07_standing_wave_propagation():
    m = builtin_model("shg3")
    g1 = GridSpec("cartesian", 1, 512, 30.0)
    gs1 = petviashvili_solve(m, 1.0, g1)
    out = run_with_monitors(gs1.state, EvolveConfig(dt=1e-3, t_end=1.0,
                                                    sample_every=10**9),
                            with_variance=False)
    ref = standing_wave(gs1.state, 1.0, out.final.t)
    err1 = np.sqrt(sum(norm_sq(g1, out.final.components[k] - ref.components[k])
                       for k in range(3)))

    g5 = GridSpec("radial", 5, 512, 15.0)
    gs5 = petviashvili_solve(m, 1.0, g5)
    out5 = run_with_monitors(gs5.state, EvolveConfig(dt=2.5e-5, t_end=1.0,
                                                     sample_every=10**9),
                             with_variance=False)
    ref5 = standing_wave(gs5.state, 1.0, out5.final.t)
    err5 = np.sqrt(sum(norm_sq(g5, out5.final.components[k] - ref5.components[k])
                       for k in range(3)))
    ok = err1 < 1e-5 and err5 < 1e-4
    report(7, ok, f"L2 error {err1:.1e} (n=1), {err5:.1e} (n=5 radial) at t=1")


def test_criterion_08_virial_identity():
    m1 = builtin_model("shg3", beta=(1.0, 1.0, 1.0))
    devs = {}
    g1 = GridSpec("cartesian", 1, 512, 20.0)
    x = g1.axis()
    comps = np.stack([np.exp(-x**2), 0.5 * np.exp(-x**2),
                      0.5 * np.exp(-x**2)]).astype(complex)
    st1 = FieldState(m1, g1, comps, 0.0)
    out1 = run_with_monitors(st1, EvolveConfig(dt=1e-3, t_end=1.0, sample_every=10))
    devs[1] = virial_check(out1, fn.energy(st1))

    g2 = GridSpec("cartesian", 2, 128, 12.0)
    xs = g2.axis()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    prof = np.exp(-(X**2 + Y**2))
    st2 = FieldState(m1, g2, np.stack([prof, 0.5 * prof, 0.5 * prof]).astype(complex),
                     0.0)
    out2 = run_with_monitors(st2, EvolveConfig(dt=1e-3, t_end=1.0, sample_every=10))
    devs[2] = virial_check(out2, fn.energy(st2))
    ok = devs[1] < 1e-3 and devs[2] < 1e-3
    report(8, ok, f"second-difference deviation {devs[1]:.1e} (n=1), {devs[2]:.1e} (n=2)")


def test_criterion_09_pseudo_conformal_law(gs_radial):
    gs4 = gs_radial[4]
    T = 1e-4
    fracs = (0.0, 0.25, 0.5, 0.75, 0.9)
    Qs = [fn.charge(pseudo_conformal_with_rate(gs4.state, T, f * T)[0]) for f in fracs]
    Ks = [fn.kinetic(pseudo_conformal_with_rate(gs4.state, T, f * T)[0]) * (T - f * T) ** 2
          for f in fracs]
    q_dev = max(abs(q - Qs[0]) for q in Qs) / Qs[0]
    k_dev = max(abs(k - Ks[0]) for k in Ks) / Ks[0]

    m = builtin_model("shg3")
    res = {}
    for N in (256, 512):
        gsN = petviashvili_solve(m, 1.0, GridSpec("radial", 4, N, 14.0))
        state, rate = pseudo_conformal_with_rate(gsN.state, T, T / 2)
        res[N] = float(np.max(pde_residual(state, rate)))
    ratio = res[256] / res[512]
    ok = q_dev < 1e-8 and k_dev < 1e-6 and ratio > 2.5
    report(9, ok, f"charge dev {q_dev:.1e}, scaled-kinetic dev {k_dev:.1e}, "
                  f"residual ratio x{ratio:.1f} under refinement")


def test_criterion_10_sharp_dichotomy_n5(gs_radial):
    t0 = time.perf_counter()
    gs5 = gs_radial[5]
    checks = []
    for c, expected in ((0.9, fn.GLOBAL), (1.2, fn.BLOWUP)):
        data = FieldState(gs5.model, gs5.grid, c * gs5.profile.astype(complex), 0.0)
        rep = fn.threshold_report(data, gs5.state)
        qe, qk = rep.QE / rep.QE_gs, rep.QK / rep.QK_gs
        checks.append(rep.classification == expected)
        checks.append(abs(qe - c**4 * (5 - 4 * c)) < 1e-2)
        checks.append(abs(qk - c**4) < 1e-2)

    run_grid = GridSpec("radial", 5, 1024, 12.0)
    gs_run = petviashvili_solve(gs5.model, 1.0, run_grid)
    glob = FieldState(gs5.model, run_grid, 0.9 * gs_run.profile.astype(complex), 0.0)
    outg = run_with_monitors(glob, EvolveConfig(dt=2e-4, t_end=10.0, sample_every=500),
                             with_variance=False)
    Kg = outg.diagnostics.column("K")
    checks.append(outg.status == "completed")
    checks.append(float(np.max(Kg)) < 2.0 * Kg[0])

    blow = FieldState(gs5.model, run_grid, 1.2 * gs_run.profile.astype(complex), 0.0)
    cfg = EvolveConfig(dt=1e-4, t_end=5.0, sample_every=50, blowup_K_factor=10.0,
                       blowup_linf=1e4, adaptive=True, dt_min=1e-7, step_drift_tol=1e-6)
    outb = run_with_monitors(blow, cfg, with_variance=False)
    checks.append(outb.status == "blown_up")
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 300.0)
    report(10, all(checks),
           f"classification global/blowup, K stays x{np.max(Kg)/Kg[0]:.2f} (c=0.9), "
           f"detection at t={outb.t_detect:.3f} (c=1.2), {elapsed:.0f}s")


def test_criterion_11_constrained_scaling_law():
    m = builtin_model("uv2")
    g = GridSpec("cartesian", 1, 512, 30.0)
    r1 = constrained_minimize(m, 1.0, g)
    r2 = constrained_minimize(m, 2.0, g)
    ratio = r2.I_nu / r1.I_nu
    ok = r1.I_nu < 0.0 and abs(ratio - 2.0 ** (5.0 / 3.0)) < 1e-2
    report(11, ok, f"I_nu = {r1.I_nu:.4f} < 0, I_2nu/I_nu = {ratio:.4f} "
                   f"vs 2^(5/3) = {2**(5/3):.4f}")


def test_criterion_12_minimizers_match_stationary_set(gs_uv2_resonant):
    gs = gs_uv2_resonant
    r = constrained_minimize(gs.model, gs.Q, gs.grid)
    dist = modulated_distance(r.minimizer, gs.state, relative=False)
    ok = dist < 1e-3 and abs(r.lagrange_theta + 1.0) < 1e-2
    report(12, ok, f"L2 distance {dist:.1e} at nu = Q(profile), "
                   f"multiplier {r.lagrange_theta:.4f}")


def test_criterion_13_instability_constructions(gs_radial):
    checks = []
    gs4 = gs_radial[4]
    for eps in (0.05, 0.1):
        data, predicted = amplified_initializer(gs4.state, eps)
        gap = abs(fn.energy(data) - predicted)
        # the gap is exactly (1+eps)^2 (K - 2P): pure structural-identity error
        tol = 1.5 * (1 + eps) ** 2 * abs(gs4.K - 2 * gs4.P) + 1e-12
        checks.append(gap <= tol)
        checks.append(abs(gs4.K - 2 * gs4.P) < 3e-3 * gs4.I)
        checks.append(fn.energy(data) < 0.0)

    gs5 = gs_radial[5]
    for lam in (1.5, 2.0):
        measured = fn.virial_functional(mass_preserving_dilation(gs5.state, lam))
        predicted = lam**2 * (1 - np.sqrt(lam)) * gs5.K
        checks.append(abs(measured - predicted) / abs(predicted) < 1e-3)
    lam_star = lambda_star(gs5.state)
    checks.append(abs(lam_star - 1.0) < 1e-3)

    run_gs = petviashvili_solve(gs5.model, 1.0, GridSpec("radial", 5, 1024, 12.0))
    data = dilated_initializer(run_gs.state, 1.5)
    cfg = EvolveConfig(dt=1e-4, t_end=5.0, sample_every=50, blowup_K_factor=10.0,
                       blowup_linf=1e4, adaptive=True, dt_min=1e-7, step_drift_tol=1e-6)
    out = run_with_monitors(data, cfg, with_variance=False)
    checks.append(out.status == "blown_up")
    report(13, all(checks),
           f"amplified-energy identity ok, dilation functional within 1e-3, "
           f"lambda* = {lam_star:.5f}, dilated run blew up at t={out.t_detect:.3f}")


def test_criterion_14_stability_probe(gs_uv2_resonant):
    gs = gs_uv2_resonant
    rng = np.random.default_rng(7)
    pert = rng.normal(size=gs.profile.shape) + 1j * rng.normal(size=gs.profile.shape)
    gnorm = np.sqrt(sum(norm_sq(gs.grid, gs.profile[k]) for k in range(2)))
    pnorm = np.sqrt(sum(norm_sq(gs.grid, pert[k]) for k in range(2)))
    pert *= 1e-3 * gnorm / pnorm
    data = FieldState(gs.model, gs.grid, gs.profile + pert, 0.0)
    dists = []
    for t_end in (10.0, 20.0):
        out = run_with_monitors(data, EvolveConfig(dt=1e-3, t_end=t_end,
                                                   sample_every=10**9),
                                with_variance=False)
        dists.append(modulated_distance(out.final, gs.state))
    ok = all(d < 1e-2 for d in dists)
    report(14, ok, f"modulated distance {dists[0]:.1e} (t=10), {dists[1]:.1e} (t=20) "
                   "for a 1e-3 relative perturbation (consistency check, not a proof)")
