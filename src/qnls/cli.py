"""Command-line surface: reproducible experiment scenarios over the library.

Scenarios (subcommands) and what they measure:

    validate     hypothesis checks H1-H8 plus the gauge/balance identities
    groundstate  stationary profile, its structural identities, sharp constants
    evolve       conservation of charge and energy along a run
    virial       second difference of the variance against its identity
    threshold    the global/blow-up classifier for data c * profile
    blowup       n=4: the explicit self-similar family; n=5: monitored runs
    stability    n<=3: orbital stability probe; n=4,5: instability data
    scaling-law  charge-constrained minimization and its power law

Configuration is a flat ``key = value`` text file with ``[model] [grid]
[evolve] [groundstate] [output]`` sections; command-line flags override file
values.  Every scenario writes ``report.txt`` (human-readable) and
``report.json`` (one record per criterion: name, measured, expected,
tolerance, pass) into the output directory and exits 0 iff all criteria
pass.  Scenarios that run a monitored evolution also record its outcome
under ``"run"``: status, the monitor that fired, accepted and rejected
steps, the final and the smallest dt and the detection time.
``QNLS_THREADS`` caps the linear-algebra thread pools.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import functionals as fn
from . import grids
from .evolve import (EvolveConfig, pseudo_conformal_solution, pseudo_conformal_with_rate,
                     pde_residual, run_with_monitors, virial_check)
from .grids import FieldState, GridSpec
from .groundstate import (amplified_initializer, constrained_minimize, dilated_initializer,
                          lambda_star, mass_preserving_dilation, modulated_distance,
                          petviashvili_solve, read_groundstate_archive,
                          write_groundstate_archive)
from .nonlinearity import builtin_model, read_model_file, validate_model


@dataclass
class Criterion:
    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    provenance: str = ""

    def as_json(self) -> dict:
        return {"name": self.name, "measured": self.measured, "expected": self.expected,
                "tolerance": self.tolerance, "pass": self.passed,
                "provenance": self.provenance}


@dataclass
class ExperimentReport:
    scenario: str
    criteria: list[Criterion] = field(default_factory=list)
    settings: dict = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    run: dict | None = None  # EvolutionOutcome.as_json() of the scenario's monitored run
    solve: dict | None = None  # iterations, restarts and residual of a profile solve

    def check(self, name, measured, expected, tolerance, provenance="",
              compare="abs") -> bool:
        """Record one criterion; compare is 'abs' |m-e|<=tol, 'le' m<=tol,
        'eq' m==e, or 'true' bool(measured)."""
        measured = float(measured)
        if compare == "abs":
            ok = abs(measured - expected) <= tolerance
        elif compare == "le":
            ok = measured <= tolerance
        elif compare == "eq":
            ok = measured == expected
        else:
            ok = bool(measured)
        self.criteria.append(Criterion(name, measured, float(expected),
                                       float(tolerance), bool(ok), provenance))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def lines(self) -> list[str]:
        out = [f"scenario: {self.scenario}", ""]
        out += [f"  {k} = {v}" for k, v in sorted(self.settings.items())]
        out.append("")
        for c in self.criteria:
            mark = "PASS" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.name}: measured={c.measured!r} "
                       f"expected={c.expected!r} tol={c.tolerance!r} {c.provenance}")
        out.append("")
        out.append("RESULT: " + ("PASS" if self.passed else "FAIL"))
        return out

    def write(self, outdir: Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.txt").write_text("\n".join(self.lines()) + "\n")
        payload = {"scenario": self.scenario, "pass": self.passed,
                   "settings": {k: repr(v) for k, v in self.settings.items()},
                   "criteria": [c.as_json() for c in self.criteria],
                   "artifacts": self.artifacts}
        if self.run is not None:
            payload["run"] = self.run
        if self.solve is not None:
            payload["solve"] = self.solve
        (outdir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# configuration handling


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value entries under [section] headers -> 'section.key'."""
    out: dict[str, str] = {}
    section = ""
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line: {raw!r}")
        full = f"{section}.{key.strip()}" if section else key.strip()
        out[full] = value.strip()
    return out


@dataclass
class Settings:
    scenario: str
    model: str = "shg3"
    model_file: str | None = None
    kappa: float = 0.5
    chi: float = 1.0
    beta: str | None = None
    kind: str = "radial"
    dim: int = 1
    points: int = 1024
    extent: float = 20.0
    omega: float = 1.0
    dt: float = 1e-3
    t_end: float = 1.0
    sample_every: int = 10
    seed: int = 0
    out: str = "qnls-out"
    archive: str | None = None
    nu: float | None = None
    amplitude: float = 0.9
    eps: float = 0.1
    lam: float = 1.5
    T: float = 1e-4
    tol: float = 1e-3

    def resolve_model(self):
        if self.model_file:
            return read_model_file(self.model_file)
        beta = None
        if self.beta is not None:
            beta = np.array([float(v) for v in str(self.beta).split(",")])
        return builtin_model(self.model, beta=beta, chi=self.chi, kappa=self.kappa)

    def resolve_grid(self) -> GridSpec:
        return GridSpec(self.kind, self.dim, self.points, self.extent)

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


_CONFIG_KEYS = {
    "model.name": ("model", str), "model.file": ("model_file", str),
    "model.kappa": ("kappa", float), "model.chi": ("chi", float),
    "model.beta": ("beta", str),
    "grid.kind": ("kind", str), "grid.dim": ("dim", int),
    "grid.points": ("points", int), "grid.extent": ("extent", float),
    "groundstate.omega": ("omega", float), "groundstate.archive": ("archive", str),
    "groundstate.nu": ("nu", float),
    "evolve.dt": ("dt", float), "evolve.t_end": ("t_end", float),
    "evolve.sample_every": ("sample_every", int),
    "output.dir": ("out", str), "output.seed": ("seed", int),
}


def build_settings(args) -> Settings:
    st = Settings(scenario=args.scenario)
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            if key in _CONFIG_KEYS:
                attr, conv = _CONFIG_KEYS[key]
                setattr(st, attr, conv(value))
    for attr in ("model", "model_file", "kappa", "chi", "beta", "kind", "dim", "points",
                 "extent", "omega", "dt", "t_end", "sample_every", "seed", "out",
                 "archive", "nu", "amplitude", "eps", "lam", "T", "tol"):
        val = getattr(args, attr, None)
        if val is not None:
            setattr(st, attr, val)
    return st


def _load_or_solve_groundstate(st: Settings):
    if st.archive and Path(st.archive).exists():
        return read_groundstate_archive(st.archive)
    model = st.resolve_model()
    grid = st.resolve_grid()
    return petviashvili_solve(model, st.omega, grid)


def _gaussian_state(model, grid, amplitudes) -> FieldState:
    rsq = grids.radius_sq(grid)
    comps = np.stack([a * np.exp(-rsq) for a in amplitudes]).astype(complex)
    return FieldState(model, grid, comps, 0.0)


# ---------------------------------------------------------------------------
# scenarios


def cmd_validate(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("validate", settings=st.as_dict())
    model = st.resolve_model()
    hyp = validate_model(model, n_samples=1000, seed=st.seed)
    for name, result in hyp.checks.items():
        rep.check(f"{model.name}:{name}", result.deviation, 0.0, hyp.tol,
                  provenance=result.detail or "hypothesis check",
                  compare="le" if result.passed else "abs")
        rep.criteria[-1].passed = result.passed
    return rep


def cmd_groundstate(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("groundstate", settings=st.as_dict())
    model = st.resolve_model()
    grid = st.resolve_grid()
    result = petviashvili_solve(model, st.omega, grid)
    rep.solve = {"iterations": result.iterations, "restarts": result.restarts,
                 "residual": result.residual}
    n = grid.n
    rep.check("residual", result.residual, 0.0, 1e-8, compare="le",
              provenance="stationary-system sup-norm residual")
    for name, dev in zip(("P-2I", "K-nI", "Qcal-(6-n)I"), result.pohozaev_dev):
        rep.check(f"identity {name}", dev, 0.0, st.tol, compare="le",
                  provenance="structural identity, relative to I")
    xi1 = fn.weinstein_infimum(result.Qcal, n)
    rep.check("J vs sharp-quotient formula", abs(result.J - xi1) / xi1, 0.0, 1e-3,
              compare="le", provenance="closed form from Qcal")
    cop = fn.sharp_constant(result.Qcal, n)
    rep.check("C_op * xi1", cop * xi1, 1.0, 1e-12, provenance="reciprocal by construction")
    outdir = Path(st.out)
    outdir.mkdir(parents=True, exist_ok=True)
    archive = outdir / "groundstate.qnls"
    write_groundstate_archive(result, archive)
    rep.artifacts.append(str(archive))
    return rep


def cmd_evolve(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("evolve", settings=st.as_dict())
    model = st.resolve_model()
    grid = st.resolve_grid()
    state = _gaussian_state(model, grid, 1.0 / (1.0 + np.arange(model.l)))
    cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every)
    out = run_with_monitors(state, cfg)
    rep.run = out.as_json()
    rep.check("status completed", float(out.status == "completed"), 1.0, 0.0, compare="true")
    rep.check("charge drift", out.diagnostics.max_relative_drift("Q"), 0.0, 1e-8,
              compare="le", provenance="relative, over the run")
    rep.check("energy drift", out.diagnostics.max_relative_drift("E"), 0.0, 1e-6,
              compare="le", provenance="relative, over the run")
    outdir = Path(st.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv = outdir / "diagnostics.csv"
    fn.write_diagnostics_csv(list(out.diagnostics), csv)
    rep.artifacts.append(str(csv))
    return rep


def cmd_virial(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("virial", settings=st.as_dict())
    model = st.resolve_model()
    grid = st.resolve_grid()
    state = _gaussian_state(model, grid, 1.0 / (1.0 + np.arange(model.l)))
    E0 = fn.energy(state)
    cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every)
    out = run_with_monitors(state, cfg)
    rep.run = out.as_json()
    rep.check("variance-identity deviation", virial_check(out, E0), 0.0, 1e-3,
              compare="le", provenance="second difference of V vs 2nE0-2nL+2(4-n)K")
    forms_gap = abs(fn.virial_rhs(state, E0) - fn.virial_rhs_gradient_form(state))
    rep.check("rhs forms agree", forms_gap / max(abs(E0), 1.0), 0.0, 1e-12, compare="le")
    return rep


def cmd_threshold(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("threshold", settings=st.as_dict())
    gs = _load_or_solve_groundstate(st)
    c = st.amplitude
    data = FieldState(gs.model, gs.grid, c * gs.profile.astype(complex), 0.0)
    report = fn.threshold_report(data, gs.state)
    rep.settings["classification"] = report.classification
    if gs.grid.n == 5:
        rep.check("QE product ratio", report.QE / report.QE_gs, c**4 * (5 - 4 * c), 1e-2,
                  provenance="closed form via the structural identities")
        rep.check("QK product ratio", report.QK / report.QK_gs, c**4, 1e-2,
                  provenance="closed form via the structural identities")
        expected = "global" if c < 1 else "blowup"
    else:
        expected = "global" if c < 1 else "indeterminate"
    rep.check(f"classification is {expected}",
              float(report.classification == expected), 1.0, 0.0, compare="true")
    return rep


def cmd_blowup(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("blowup", settings=st.as_dict())
    gs = _load_or_solve_groundstate(st)
    n = gs.grid.n
    if n == 4:
        T = st.T
        samples = [0.0, 0.25 * T, 0.5 * T, 0.75 * T, 0.9 * T]
        Qs = [fn.charge(pseudo_conformal_solution(gs.state, T, t)) for t in samples]
        Ks = [fn.kinetic(pseudo_conformal_solution(gs.state, T, t)) * (T - t) ** 2
              for t in samples]
        rep.check("charge constancy", max(abs(q - Qs[0]) for q in Qs) / Qs[0], 0.0, 1e-8,
                  compare="le", provenance="explicit self-similar family")
        rep.check("kinetic (T-t)^2 constancy", max(abs(k - Ks[0]) for k in Ks) / Ks[0],
                  0.0, 1e-6, compare="le")
        res = {}
        for N in (gs.grid.N // 2, gs.grid.N):
            gsN = petviashvili_solve(gs.model, st.omega,
                                     GridSpec(gs.grid.kind, 4, N, gs.grid.extent))
            state, rate = pseudo_conformal_with_rate(gsN.state, T, 0.5 * T)
            res[N] = float(np.max(pde_residual(state, rate)))
        rep.check("closed-form residual refinement order",
                  np.log2(res[gs.grid.N // 2] / res[gs.grid.N]), 2.0, 0.5,
                  provenance="log2 of the residual ratio under N doubling")
    elif n == 5:
        data = FieldState(gs.model, gs.grid, st.amplitude * gs.profile.astype(complex), 0.0)
        # any solution on the global branch of this family keeps K below
        # 1.52 K(0) for all time, so a tenfold kinetic growth with collapsing
        # dt is unambiguous divergence
        cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every,
                           blowup_K_factor=10.0, blowup_linf=1e4, adaptive=True,
                           dt_min=1e-7, step_drift_tol=1e-6)
        out = run_with_monitors(data, cfg, with_variance=False)
        rep.run = out.as_json()
        expected_status = "blown_up" if st.amplitude > 1 else "completed"
        rep.check(f"run status {expected_status}",
                  float(out.status == expected_status), 1.0, 0.0, compare="true")
        if st.amplitude < 1:
            Ks = out.diagnostics.column("K")
            rep.check("kinetic stays below 2 K(0)", float(np.max(Ks) / Ks[0]), 0.0, 2.0,
                      compare="le")
    else:
        raise SystemExit("blowup scenarios are defined for dim 4 and 5")
    return rep


def cmd_stability(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("stability", settings=st.as_dict())
    gs = _load_or_solve_groundstate(st)
    n = gs.grid.n
    if n <= 3:
        rng = np.random.default_rng(st.seed)
        pert = rng.normal(size=gs.profile.shape) + 1j * rng.normal(size=gs.profile.shape)
        gnorm = np.sqrt(sum(grids.norm_sq(gs.grid, gs.profile[k]) for k in range(gs.model.l)))
        pnorm = np.sqrt(sum(grids.norm_sq(gs.grid, pert[k]) for k in range(gs.model.l)))
        pert *= st.eps * gnorm / pnorm
        data = FieldState(gs.model, gs.grid, gs.profile + pert, 0.0)
        cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every)
        out = run_with_monitors(data, cfg, with_variance=False)
        rep.run = out.as_json()
        dist = modulated_distance(out.final, gs.state)
        rep.check("modulated distance stays small", dist, 0.0, 10 * st.eps, compare="le",
                  provenance="relative L2, modulo translation and coupled phase")
    elif n == 4:
        for eps in (0.05, st.eps):
            data, predicted = amplified_initializer(gs.state, eps)
            measured = fn.energy(data)
            # the gap is exactly (1+eps)^2 (K - 2P): pure identity error,
            # independent of eps
            scale = (1 + eps) ** 2 * max(abs(gs.K - 2 * gs.P), 1e-300)
            rep.check(f"energy of amplified datum eps={eps}",
                      abs(measured - predicted) / scale, 0.0, 1.5, compare="le",
                      provenance="gap over the structural-identity deviation")
            rep.check(f"amplified energy negative eps={eps}", measured, 0.0, 0.0,
                      compare="le")
    elif n == 5:
        K = gs.K
        for lam in (st.lam, 2.0):
            dil = mass_preserving_dilation(gs.state, lam)
            measured = fn.virial_functional(dil)
            predicted = lam**2 * (1 - np.sqrt(lam)) * K
            rep.check(f"dilation functional lam={lam}",
                      abs(measured - predicted) / abs(predicted), 0.0, 1e-3, compare="le")
        rep.check("lambda_star of the profile", lambda_star(gs.state), 1.0, 1e-3)
        data = dilated_initializer(gs.state, st.lam)
        cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every,
                           blowup_K_factor=10.0, blowup_linf=1e4, adaptive=True,
                           dt_min=1e-7, step_drift_tol=1e-6)
        out = run_with_monitors(data, cfg, with_variance=False)
        rep.run = out.as_json()
        rep.check("dilated datum blows up", float(out.status == "blown_up"), 1.0, 0.0,
                  compare="true")
    return rep


def cmd_scaling_law(st: Settings) -> ExperimentReport:
    rep = ExperimentReport("scaling-law", settings=st.as_dict())
    model = st.resolve_model()
    grid = st.resolve_grid()
    n = grid.n
    nu = st.nu if st.nu is not None else 1.0
    r1 = constrained_minimize(model, nu, grid)
    r2 = constrained_minimize(model, 2 * nu, grid)
    rep.check("I_nu negative", r1.I_nu, 0.0, 0.0, compare="le")
    exponent = (6.0 - n) / (4.0 - n)
    rep.check("I_(2nu)/I_nu", r2.I_nu / r1.I_nu, 2.0**exponent, 1e-2,
              provenance="charge-scaling power law")
    if st.archive and Path(st.archive).exists():
        gs = read_groundstate_archive(st.archive)
        rmu = constrained_minimize(model, gs.Q, grid)
        dist = modulated_distance(rmu.minimizer, gs.state, relative=False)
        rep.check("minimizer matches stationary profile", dist, 0.0, 1e-3, compare="le",
                  provenance="L2 modulo symmetries, at nu = Q(profile)")
        rep.check("recovered multiplier", rmu.lagrange_theta, -1.0, 1e-2)
    return rep


SCENARIOS = {
    "validate": cmd_validate,
    "groundstate": cmd_groundstate,
    "evolve": cmd_evolve,
    "virial": cmd_virial,
    "threshold": cmd_threshold,
    "blowup": cmd_blowup,
    "stability": cmd_stability,
    "scaling-law": cmd_scaling_law,
}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qnls",
                                description="coupled quadratic Schrodinger laboratory")
    sub = p.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--model", default=None, choices=["shg3", "cascade3", "uv2"])
        sp.add_argument("--model-file", dest="model_file", default=None)
        sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--chi", type=float, default=None)
        sp.add_argument("--beta", default=None)
        sp.add_argument("--kind", default=None, choices=["cartesian", "radial"])
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--points", type=int, default=None)
        sp.add_argument("--extent", type=float, default=None)
        sp.add_argument("--omega", type=float, default=None)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--t-end", dest="t_end", type=float, default=None)
        sp.add_argument("--sample-every", dest="sample_every", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--archive", default=None)
        sp.add_argument("--nu", type=float, default=None)
        sp.add_argument("--amplitude", type=float, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--lam", type=float, default=None)
        sp.add_argument("--T", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    st = build_settings(args)
    report = SCENARIOS[st.scenario](st)
    outdir = Path(st.out)
    report.write(outdir)
    print("\n".join(report.lines()))
    print(f"report written to {outdir}/report.txt and report.json")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
