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
[evolve] [groundstate] [output]`` sections; a key that no ``Settings`` field
declares is an error, and command-line flags override file values.  ``main``
makes the report a scenario fills, writes ``report.txt`` (human-readable) and
``report.json`` (one record per criterion: name, measured, expected,
tolerance, pass) into the output directory and exits 0 iff all criteria
pass.  A monitored evolution is recorded under ``"run"``: status, the monitor
that fired, accepted and rejected steps, the final and the smallest dt and
the detection time.  A profile solve (groundstate; threshold, blowup and
stability unless read from ``--archive``) is recorded under ``"solve"``:
iterations, residual and accepted_on.  A dimension outside a
scenario's range, or threshold with beta != 0, is refused before any solve:
one line on stderr, exit status 1.  ``QNLS_THREADS`` caps the linear-algebra
thread pools; unset, they run one thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import functionals as fn
from . import grids
from .evolve import (EvolveConfig, pde_residual, pseudo_conformal_with_rate,
                     run_with_monitors, virial_check)
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
    solve: dict | None = None  # iterations, residual and accepted_on of a profile solve

    def check(self, name, measured, expected, tolerance, provenance="",
              compare="abs") -> bool:
        """Record one criterion; compare is 'abs' |m-e|<=tol or 'le' m<=tol."""
        measured = float(measured)
        ok = abs(measured - expected) <= tolerance if compare == "abs" else measured <= tolerance
        self.criteria.append(Criterion(name, measured, float(expected),
                                       float(tolerance), bool(ok), provenance))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def lines(self) -> list[str]:
        out = [f"scenario: {self.scenario}", ""]
        out += [f"  {k} = {v}" for k, v in sorted(self.settings.items())] + [""]
        for c in self.criteria:
            mark = "PASS" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.name}: measured={c.measured!r} "
                       f"expected={c.expected!r} tol={c.tolerance!r} {c.provenance}")
        out += ["", "RESULT: " + ("PASS" if self.passed else "FAIL")]
        return out

    def write(self, outdir: Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.txt").write_text("\n".join(self.lines()) + "\n")
        payload = {"scenario": self.scenario, "pass": self.passed,
                   "settings": {k: repr(v) for k, v in self.settings.items()},
                   "criteria": [c.as_json() for c in self.criteria],
                   "artifacts": self.artifacts}
        payload.update({k: v for k, v in (("run", self.run), ("solve", self.solve))
                        if v is not None})
        (outdir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# configuration handling


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value entries under [section] headers -> 'section.key'.
    A malformed file raises ValueError naming the file and the field."""
    out: dict[str, str] = {}
    section = ""
    try:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"line {lineno}: field {line!r} in [{section}] "
                                 "is not key = value")
            full = f"{section}.{key.strip()}" if section else key.strip()
            out[full] = value.strip()
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None
    return out


def _setting(default, parse=str, key=None, choices=None):
    """One scenario setting: its default, the parser of its --flag and its
    config-file value, its config key ('section.name'; None for flag-only
    settings) and the values its flag accepts."""
    return field(default=default,
                 metadata={"parse": parse, "key": key, "choices": choices})


@dataclass
class Settings:
    """The settings of a scenario, each declared once: ``make_parser`` derives
    a ``--flag`` per field (underscores become dashes) and ``build_settings``
    reads the config keys.  A new setting is one field here."""

    scenario: str
    model: str = _setting("shg3", key="model.name", choices=("shg3", "cascade3", "uv2"))
    model_file: str | None = _setting(None, key="model.file")
    kappa: float = _setting(0.5, float, "model.kappa")
    chi: float = _setting(1.0, float, "model.chi")
    beta: str | None = _setting(None, key="model.beta")
    kind: str = _setting("radial", key="grid.kind", choices=("cartesian", "radial"))
    dim: int = _setting(1, int, "grid.dim")
    points: int = _setting(1024, int, "grid.points")
    extent: float = _setting(20.0, float, "grid.extent")
    omega: float = _setting(1.0, float, "groundstate.omega")
    dt: float = _setting(1e-3, float, "evolve.dt")
    t_end: float = _setting(1.0, float, "evolve.t_end")
    sample_every: int = _setting(10, int, "evolve.sample_every")
    seed: int = _setting(0, int, "output.seed")
    out: str = _setting("qnls-out", key="output.dir")
    archive: str | None = _setting(None, key="groundstate.archive")
    nu: float | None = _setting(None, float, "groundstate.nu")
    amplitude: float = _setting(0.9, float)
    eps: float = _setting(0.1, float)
    lam: float = _setting(1.5, float)
    T: float = _setting(1e-4, float)
    tol: float = _setting(1e-3, float)

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


def build_settings(args) -> Settings:
    """Settings from the config file, if any, then the flags that were given.
    A config key that no setting declares, or a value outside its choices,
    raises ValueError."""
    st = Settings(scenario=args.scenario)
    if getattr(args, "config", None):
        keyed = {f.metadata["key"]: f for f in fields(Settings) if f.metadata.get("key")}
        for key, value in parse_config_file(args.config).items():
            if key not in keyed:
                raise ValueError(f"{args.config}: unknown field {key}={value!r}; "
                                 f"the config keys are {', '.join(keyed)}")
            f = keyed[key]
            try:
                parsed = f.metadata["parse"](value)
                if f.metadata["choices"] and parsed not in f.metadata["choices"]:
                    raise ValueError(f"choose from {', '.join(f.metadata['choices'])}")
                setattr(st, f.name, parsed)
            except ValueError as exc:
                raise ValueError(f"{args.config}: bad field {key}={value!r}: {exc}") from None
    for f in fields(Settings):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(st, f.name, val)
    return st


def _require_dim(n: int, dims: tuple[int, ...], scenario: str) -> None:
    """Refuse a dimension outside dims: one line on stderr, exit status 1."""
    if n not in dims:
        *head, last = map(str, dims)
        raise SystemExit(f"{scenario} scenarios are defined for dim {', '.join(head)} and {last}")


def _artifact(st: Settings, rep: ExperimentReport, name: str) -> Path:
    """The path of artifact name in the output directory (made), recorded in rep."""
    path = Path(st.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    rep.artifacts.append(str(path))
    return path


def _solve(rep: ExperimentReport, model, omega: float, grid: GridSpec):
    """petviashvili_solve, its convergence record kept as rep.solve."""
    gs = petviashvili_solve(model, omega, grid)
    rep.solve = {"iterations": gs.iterations, "residual": gs.residual,
                 "accepted_on": gs.accepted_on}
    return gs


def _load_or_solve_groundstate(st: Settings, rep: ExperimentReport, dims: tuple[int, ...],
                               beta_zero: bool = False):
    """The archived profile if st.archive exists, else a fresh solve; a dimension
    outside dims, or with beta_zero a beta != 0, is refused before any solve."""
    gs = None
    if st.archive and Path(st.archive).exists():
        gs = read_groundstate_archive(st.archive)
    _require_dim(st.dim if gs is None else gs.grid.n, dims, st.scenario)
    model = st.resolve_model() if gs is None else gs.model
    if beta_zero and np.any(model.coeffs.beta):
        raise SystemExit(f"{st.scenario} scenarios are defined for beta = 0")
    return _solve(rep, model, st.omega, st.resolve_grid()) if gs is None else gs


def _run(rep: ExperimentReport, state: FieldState, cfg: EvolveConfig,
         with_variance: bool = True):
    """run_with_monitors, its outcome recorded as rep.run."""
    out = run_with_monitors(state, cfg, with_variance=with_variance)
    rep.run = out.as_json()
    return out


def _gaussian_run(st: Settings, rep: ExperimentReport):
    """evolve's and virial's fixed-dt run from u_k = exp(-|x|^2)/(1+k): (state, outcome)."""
    model, grid = st.resolve_model(), st.resolve_grid()
    comps = [a * np.exp(-grids.radius_sq(grid)) for a in 1.0 / (1.0 + np.arange(model.l))]
    state = FieldState(model, grid, np.stack(comps).astype(complex), 0.0)
    cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every)
    return state, _run(rep, state, cfg)


def _collapse_config(st: Settings) -> EvolveConfig:
    """The adaptive n = 5 collapse run of blowup and stability: blow-up on a
    tenfold kinetic growth.  Any solution on the global branch of the blowup
    family c psi keeps K below 1.52 K(0) for all time, so that growth with
    collapsing dt is unambiguous divergence."""
    return EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every,
                        blowup_K_factor=10.0, blowup_linf=1e4, adaptive=True,
                        dt_min=1e-7, step_drift_tol=1e-6)


# ---------------------------------------------------------------------------
# scenarios: each fills the report that main makes and writes


def cmd_validate(st: Settings, rep: ExperimentReport) -> None:
    model = st.resolve_model()
    hyp = validate_model(model, seed=st.seed)
    for name, result in hyp.checks.items():
        rep.criteria.append(Criterion(f"{model.name}:{name}", float(result.deviation), 0.0,
                                      float(hyp.tol), result.passed,
                                      result.detail or "hypothesis check"))


def cmd_groundstate(st: Settings, rep: ExperimentReport) -> None:
    result = _solve(rep, st.resolve_model(), st.omega, st.resolve_grid())
    n = result.grid.n
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
    write_groundstate_archive(result, _artifact(st, rep, "groundstate.qnls"))


def cmd_evolve(st: Settings, rep: ExperimentReport) -> None:
    _, out = _gaussian_run(st, rep)
    rep.check("status completed", float(out.status == "completed"), 1.0, 0.0)
    rep.check("charge drift", out.diagnostics.max_relative_drift("Q"), 0.0, 1e-8,
              compare="le", provenance="relative, over the run")
    rep.check("energy drift", out.diagnostics.max_relative_drift("E"), 0.0, 1e-6,
              compare="le", provenance="relative, over the run")
    fn.write_diagnostics_csv(list(out.diagnostics), _artifact(st, rep, "diagnostics.csv"))


def cmd_virial(st: Settings, rep: ExperimentReport) -> None:
    state, out = _gaussian_run(st, rep)
    E0 = fn.energy(state)
    rep.check("variance-identity deviation", virial_check(out, E0), 0.0, 1e-3,
              compare="le", provenance="second difference of V vs 2nE0-2nL+2(4-n)K")
    forms_gap = abs(fn.virial_rhs(state, E0) - fn.virial_rhs_gradient_form(state))
    rep.check("rhs forms agree", forms_gap / max(abs(E0), 1.0), 0.0, 1e-12, compare="le")


def cmd_threshold(st: Settings, rep: ExperimentReport) -> None:
    gs = _load_or_solve_groundstate(st, rep, (4, 5), beta_zero=True)
    c = st.amplitude
    data = FieldState(gs.model, gs.grid, c * gs.profile.astype(complex), 0.0)
    report = fn.threshold_report(data, gs.state)
    rep.settings["classification"] = report.classification
    if gs.grid.n == 5:
        rep.check("QE product ratio", report.QE / report.QE_gs, c**4 * (5 - 4 * c), 1e-2,
                  provenance="closed form via the structural identities")
        rep.check("QK product ratio", report.QK / report.QK_gs, c**4, 1e-2,
                  provenance="closed form via the structural identities")
    expected = "global" if c < 1 else "blowup" if gs.grid.n == 5 else "indeterminate"
    rep.check(f"classification is {expected}",
              float(report.classification == expected), 1.0, 0.0)


def cmd_blowup(st: Settings, rep: ExperimentReport) -> None:
    gs = _load_or_solve_groundstate(st, rep, (4, 5))
    if gs.grid.n == 4:
        T = st.T
        samples = [0.0, 0.25 * T, 0.5 * T, 0.75 * T, 0.9 * T]
        states = [pseudo_conformal_with_rate(gs.state, T, t)[0] for t in samples]
        Qs = [fn.charge(s) for s in states]
        Ks = [fn.kinetic(s) * (T - t) ** 2 for s, t in zip(states, samples)]
        rep.check("charge constancy", max(abs(q - Qs[0]) for q in Qs) / Qs[0], 0.0, 1e-8,
                  compare="le", provenance="explicit self-similar family")
        rep.check("kinetic (T-t)^2 constancy", max(abs(k - Ks[0]) for k in Ks) / Ks[0],
                  0.0, 1e-6, compare="le")
        res = {}
        for N in (gs.grid.N // 2, gs.grid.N):
            gsN = gs if (N, st.omega) == (gs.grid.N, gs.omega) else petviashvili_solve(
                gs.model, st.omega, GridSpec(gs.grid.kind, 4, N, gs.grid.extent))
            state, rate = pseudo_conformal_with_rate(gsN.state, T, 0.5 * T)
            res[N] = float(np.max(pde_residual(state, rate)))
        rep.check("closed-form residual refinement order",
                  np.log2(res[gs.grid.N // 2] / res[gs.grid.N]), 2.0, 0.5,
                  provenance="log2 of the residual ratio under N doubling")
    else:
        data = FieldState(gs.model, gs.grid, st.amplitude * gs.profile.astype(complex), 0.0)
        out = _run(rep, data, _collapse_config(st), with_variance=False)
        expected_status = "blown_up" if st.amplitude > 1 else "completed"
        rep.check(f"run status {expected_status}",
                  float(out.status == expected_status), 1.0, 0.0)
        if st.amplitude < 1:
            Ks = out.diagnostics.column("K")
            rep.check("kinetic stays below 2 K(0)", float(np.max(Ks) / Ks[0]), 0.0, 2.0,
                      compare="le")


def cmd_stability(st: Settings, rep: ExperimentReport) -> None:
    gs = _load_or_solve_groundstate(st, rep, (1, 2, 3, 4, 5))
    n = gs.grid.n
    if n <= 3:
        rng = np.random.default_rng(st.seed)
        pert = rng.normal(size=gs.profile.shape) + 1j * rng.normal(size=gs.profile.shape)
        gnorm = np.sqrt(grids.norm_sq(gs.grid, gs.profile))
        pnorm = np.sqrt(grids.norm_sq(gs.grid, pert))
        pert *= st.eps * gnorm / pnorm
        data = FieldState(gs.model, gs.grid, gs.profile + pert, 0.0)
        cfg = EvolveConfig(dt=st.dt, t_end=st.t_end, sample_every=st.sample_every)
        out = _run(rep, data, cfg, with_variance=False)
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
        for lam in (st.lam, 2.0):
            dil = mass_preserving_dilation(gs.state, lam)
            measured = fn.virial_functional(dil)
            predicted = lam**2 * (1 - np.sqrt(lam)) * gs.K
            rep.check(f"dilation functional lam={lam}",
                      abs(measured - predicted) / abs(predicted), 0.0, 1e-3, compare="le")
        rep.check("lambda_star of the profile", lambda_star(gs.state), 1.0, 1e-3)
        data = dilated_initializer(gs.state, st.lam)
        out = _run(rep, data, _collapse_config(st), with_variance=False)
        rep.check("dilated datum blows up", float(out.status == "blown_up"), 1.0, 0.0)


def cmd_scaling_law(st: Settings, rep: ExperimentReport) -> None:
    _require_dim(st.dim, (1, 2, 3), st.scenario)
    model, grid = st.resolve_model(), st.resolve_grid()
    nu = st.nu if st.nu is not None else 1.0
    r1 = constrained_minimize(model, nu, grid)
    r2 = constrained_minimize(model, 2 * nu, grid)
    rep.check("I_nu negative", r1.I_nu, 0.0, 0.0, compare="le")
    exponent = (6.0 - grid.n) / (4.0 - grid.n)
    rep.check("I_(2nu)/I_nu", r2.I_nu / r1.I_nu, 2.0**exponent, 1e-2,
              provenance="charge-scaling power law")
    if st.archive and Path(st.archive).exists():
        gs = read_groundstate_archive(st.archive)
        rmu = constrained_minimize(model, gs.Q, grid)
        dist = modulated_distance(rmu.minimizer, gs.state, relative=False)
        rep.check("minimizer matches stationary profile", dist, 0.0, 1e-3, compare="le",
                  provenance="L2 modulo symmetries, at nu = Q(profile)")
        rep.check("recovered multiplier", rmu.lagrange_theta, -1.0, 1e-2)


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
    options = [f for f in fields(Settings) if f.metadata]
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        for f in options:
            sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=f.metadata["parse"], default=None,
                            choices=f.metadata["choices"])
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    st = build_settings(args)
    rep = ExperimentReport(st.scenario, settings=st.as_dict())
    SCENARIOS[st.scenario](st, rep)
    outdir = Path(st.out)
    rep.write(outdir)
    print("\n".join(rep.lines()))
    print(f"report written to {outdir}/report.txt and report.json")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
