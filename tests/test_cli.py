import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnls
from qnls import cli
from qnls.cli import build_settings, main, make_parser, parse_config_file
from qnls.evolve import pde_residual, pseudo_conformal_with_rate
from qnls.grids import GridSpec
from qnls.groundstate import petviashvili_solve, write_groundstate_archive
from qnls.nonlinearity import (CoefficientSet, ModelSpec, Term, builtin_model,
                               write_model_file)


def test_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# comment
[model]
name = uv2
kappa = 0.5
[grid]
kind = cartesian
dim = 1
points = 128
extent = 15.0
[output]
dir = out
seed = 3
""")
    parsed = parse_config_file(cfg)
    assert parsed["model.name"] == "uv2"
    assert parsed["grid.points"] == "128"
    assert parsed["output.seed"] == "3"


def test_bad_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[model]\njust a dangling token\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


@pytest.mark.parametrize("data,field", [
    (b"[grid]\nkind radial\n", "'kind radial'"),           # no "="
    (b"[grid]\n = 3\n", "'= 3'"),                          # no key
    (b"[grid]\nkind = radial\xff\n", "utf-8"),            # undecodable byte
    (b"[grid]\npoints = x\n", "grid.points='x'"),          # value that does not convert
    (b"[grid]\npionts = 128\n", "grid.pionts"),            # misspelled key
    (b"[evolve]\namplitude = 1.2\n", "evolve.amplitude"),  # flag-only setting
    (b"[grid]\nkind = bogus\n", "grid.kind='bogus'"),      # value outside the choices
    (b"[model]\nname = bogus\n", "model.name='bogus'"),
], ids=["no-equals", "no-key", "non-utf8", "bad-value", "unknown-key", "flag-only-key",
        "kind-choice", "model-choice"])
def test_malformed_config_names_file_and_field(tmp_path, data, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    with pytest.raises(ValueError) as info:
        main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert type(info.value) is ValueError
    assert str(cfg) in str(info.value)
    assert field in str(info.value)


# flag, Settings field, config key (None: flag only), default, text, parsed value
CLI_SURFACE = [
    ("--model", "model", "model.name", "shg3", "uv2", "uv2"),
    ("--model-file", "model_file", "model.file", None, "m.txt", "m.txt"),
    ("--kappa", "kappa", "model.kappa", 0.5, "0.25", 0.25),
    ("--chi", "chi", "model.chi", 1.0, "2.5", 2.5),
    ("--beta", "beta", "model.beta", None, "0.1,0.2,0.3", "0.1,0.2,0.3"),
    ("--kind", "kind", "grid.kind", "radial", "cartesian", "cartesian"),
    ("--dim", "dim", "grid.dim", 1, "3", 3),
    ("--points", "points", "grid.points", 1024, "128", 128),
    ("--extent", "extent", "grid.extent", 20.0, "15.5", 15.5),
    ("--omega", "omega", "groundstate.omega", 1.0, "1.5", 1.5),
    ("--dt", "dt", "evolve.dt", 1e-3, "2e-4", 2e-4),
    ("--t-end", "t_end", "evolve.t_end", 1.0, "0.5", 0.5),
    ("--sample-every", "sample_every", "evolve.sample_every", 10, "5", 5),
    ("--seed", "seed", "output.seed", 0, "7", 7),
    ("--out", "out", "output.dir", "qnls-out", "elsewhere", "elsewhere"),
    ("--archive", "archive", "groundstate.archive", None, "gs.qnls", "gs.qnls"),
    ("--nu", "nu", "groundstate.nu", None, "2", 2.0),
    ("--amplitude", "amplitude", None, 0.9, "1.2", 1.2),
    ("--eps", "eps", None, 0.1, "0.05", 0.05),
    ("--lam", "lam", None, 1.5, "2", 2.0),
    ("--T", "T", None, 1e-4, "3e-4", 3e-4),
    ("--tol", "tol", None, 1e-3, "2e-3", 2e-3),
]


def _same(got, want):
    return got == want and type(got) is type(want)


def test_cli_surface_declares_the_same_options():
    parser = make_parser()
    args = parser.parse_args(["validate"])
    assert set(vars(args)) == {"scenario", "config"} | {row[1] for row in CLI_SURFACE}
    defaults = build_settings(args)
    for _, attr, _, default, _, _ in CLI_SURFACE:
        assert _same(getattr(defaults, attr), default), attr
    assert sum(row[2] is not None for row in CLI_SURFACE) == 17
    for flag in ("--model", "--kind"):
        with pytest.raises(SystemExit):
            parser.parse_args(["validate", flag, "bogus"])


@pytest.mark.parametrize("flag,attr,key,default,text,value", CLI_SURFACE,
                         ids=[row[0] for row in CLI_SURFACE])
def test_cli_surface_flag_and_config_key(tmp_path, flag, attr, key, default, text, value):
    parser = make_parser()
    st = build_settings(parser.parse_args(["validate", flag, text]))
    assert _same(getattr(st, attr), value)
    if key is not None:
        section, name = key.split(".")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{name} = {text}\n")
        st = build_settings(parser.parse_args(["validate", "--config", str(cfg)]))
        assert _same(getattr(st, attr), value)


def test_validate_builtin_passes(tmp_path):
    out = tmp_path / "rep"
    code = main(["validate", "--model", "cascade3", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["pass"] is True
    assert payload["scenario"] == "validate"
    names = {c["name"] for c in payload["criteria"]}
    assert any("H8" in n for n in names)
    assert all({"name", "measured", "expected", "tolerance", "pass"} <= set(c)
               for c in payload["criteria"])


def test_validate_counterexample_fails(tmp_path):
    # F = z1 z2 z3 + conj with unit phase weights: the phase invariance breaks
    terms = (Term(0.5, (1, 1, 1), (0, 0, 0)), Term(0.5, (0, 0, 0), (1, 1, 1)))
    coeffs = CoefficientSet(alpha=np.ones(3), gamma=np.ones(3), beta=np.zeros(3))
    model = ModelSpec(coeffs=coeffs, terms=terms)
    mfile = tmp_path / "model.txt"
    write_model_file(model, mfile)
    out = tmp_path / "rep"
    code = main(["validate", "--model-file", str(mfile), "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "report.json").read_text())
    failed = {c["name"] for c in payload["criteria"] if not c["pass"]}
    assert any("gauge" in n for n in failed)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nname = shg3\n[output]\ndir = %s\n" % (tmp_path / "a"))
    out_b = tmp_path / "b"
    code = main(["validate", "--config", str(cfg), "--out", str(out_b)])
    assert code == 0
    assert (out_b / "report.json").exists()


def test_groundstate_archive_then_threshold(tmp_path):
    out = tmp_path / "gs"
    code = main(["groundstate", "--model", "shg3", "--kind", "radial", "--dim", "5",
                 "--points", "1024", "--extent", "12", "--out", str(out),
                 "--tol", "2e-3"])
    assert code == 0
    archive = out / "groundstate.qnls"
    assert archive.exists()
    solve = json.loads((out / "report.json").read_text())["solve"]
    assert set(solve) == {"iterations", "residual", "accepted_on"}
    assert solve["iterations"] > 0 and solve["residual"] < 1e-8
    assert solve["accepted_on"] in ("tolerance", "floor")

    out2 = tmp_path / "thr"
    code = main(["threshold", "--archive", str(archive), "--amplitude", "0.9",
                 "--out", str(out2)])
    assert code == 0
    payload = json.loads((out2 / "report.json").read_text())
    assert payload["settings"]["classification"] == "'global'"
    assert "solve" not in payload

    out3 = tmp_path / "thr2"
    code = main(["threshold", "--archive", str(archive), "--amplitude", "1.2",
                 "--out", str(out3)])
    assert code == 0
    payload = json.loads((out3 / "report.json").read_text())
    assert payload["settings"]["classification"] == "'blowup'"

    # a profile read from the archive is not solved, so no solve is recorded
    for scenario in ("blowup", "stability"):
        out4 = tmp_path / scenario
        main([scenario, "--archive", str(archive), "--amplitude", "0.9", "--t-end", "0.01",
              "--out", str(out4)])
        assert "solve" not in json.loads((out4 / "report.json").read_text())


@pytest.mark.parametrize("argv", [
    *[["threshold", "--dim", str(n)] for n in (1, 2, 3)],
    *[["scaling-law", "--dim", str(n)] for n in (4, 5)]])
def test_scenario_refuses_dimension_before_solving(tmp_path, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(cli, "petviashvili_solve", no_solve)
    monkeypatch.setattr(cli, "constrained_minimize", no_solve)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--kind", "radial", "--out", str(tmp_path / "out")])
    assert info.value.code == f"{argv[0]} scenarios are defined for dim " + (
        "4 and 5" if argv[0] == "threshold" else "1, 2 and 3")
    assert not (tmp_path / "out").exists()


def _python(args, env=None):
    """A fresh interpreter on args that imports this checkout's qnls."""
    env = dict(os.environ if env is None else env)
    src = str(Path(qnls.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


def test_refusal_is_one_line_and_exit_1(tmp_path):
    proc = _python(["-m", "qnls.cli", "threshold", "--dim", "3",
                    "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert proc.stderr == "threshold scenarios are defined for dim 4 and 5\n"


BETA_REFUSAL = "threshold scenarios are defined for beta = 0"


def test_threshold_refuses_beta_before_solving(tmp_path, monkeypatch):
    # the dichotomy criterion is the beta = 0 statement
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(cli, "petviashvili_solve", no_solve)
    with pytest.raises(SystemExit) as info:
        main(["threshold", "--dim", "5", "--beta", "0.2,0.2,0.2",
              "--out", str(tmp_path / "out")])
    assert info.value.code == BETA_REFUSAL
    assert not (tmp_path / "out").exists()


def test_threshold_refuses_archived_beta_profile(tmp_path):
    gs = petviashvili_solve(builtin_model("shg3", beta=0.2), 1.0,
                            GridSpec("radial", 5, 256, 12.0))
    write_groundstate_archive(gs, tmp_path / "gs.qnls")
    with pytest.raises(SystemExit) as info:
        main(["threshold", "--archive", str(tmp_path / "gs.qnls"),
              "--out", str(tmp_path / "out")])
    assert info.value.code == BETA_REFUSAL
    assert not (tmp_path / "out").exists()


def test_beta_refusal_is_one_line_and_exit_1(tmp_path):
    proc = _python(["-m", "qnls.cli", "threshold", "--dim", "5", "--beta", "0.2,0.2,0.2",
                    "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert proc.stderr == BETA_REFUSAL + "\n"


POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("env,expected", [
    ({}, ["1", "1", "1"]),
    ({"QNLS_THREADS": "2"}, ["2", "2", "2"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["1", "3", "1"])])
def test_thread_pool_defaults(env, expected):
    # the pools read these when numpy loads, so each case is a fresh process
    clean = {k: v for k, v in os.environ.items() if k not in ("QNLS_THREADS", *POOL_VARS)}
    proc = _python(["-c", f"import os, qnls; print(*(os.environ[v] for v in {POOL_VARS!r}))"],
                   env=dict(clean, **env))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


def _counting_solves(monkeypatch) -> list:
    """Patch cli.petviashvili_solve to keep every result it returns."""
    solves, solve = [], cli.petviashvili_solve

    def counted(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(cli, "petviashvili_solve", counted)
    return solves


@pytest.mark.parametrize("argv", [
    ["threshold", "--dim", "5", "--points", "256", "--extent", "12"],
    ["blowup", "--dim", "5", "--points", "256", "--extent", "12", "--amplitude", "0.9",
     "--t-end", "0.01"],
    ["stability", "--dim", "4", "--points", "256", "--extent", "16"]])
def test_scenarios_record_their_profile_solve(tmp_path, monkeypatch, argv):
    solves = _counting_solves(monkeypatch)
    main(argv + ["--out", str(tmp_path)])
    [gs] = solves
    assert json.loads((tmp_path / "report.json").read_text())["solve"] == {
        "iterations": gs.iterations, "residual": gs.residual, "accepted_on": gs.accepted_on}


def test_blowup_n4_solves_each_grid_once(tmp_path, monkeypatch):
    # the profile solved at N is reused for the (N/2, N) refinement pair
    solves = _counting_solves(monkeypatch)
    out = tmp_path / "b4"
    assert main(["blowup", "--dim", "4", "--points", "512", "--out", str(out)]) == 0
    assert [gs.grid.N for gs in solves] == [512, 256]
    payload = json.loads((out / "report.json").read_text())
    measured = {c["name"]: c["measured"] for c in payload["criteria"]}
    # the criterion as a fresh solve on each grid gives it
    res = []
    for N in (256, 512):
        gs = petviashvili_solve(builtin_model("shg3"), 1.0, GridSpec("radial", 4, N, 20.0))
        state, rate = pseudo_conformal_with_rate(gs.state, 1e-4, 0.5e-4)
        res.append(float(np.max(pde_residual(state, rate))))
    assert measured["closed-form residual refinement order"] == float(np.log2(res[0] / res[1]))


def test_evolve_scenario(tmp_path):
    out = tmp_path / "ev"
    code = main(["evolve", "--model", "shg3", "--kind", "cartesian", "--dim", "1",
                 "--points", "256", "--extent", "20", "--dt", "1e-3",
                 "--t-end", "0.2", "--out", str(out)])
    assert code == 0
    assert (out / "diagnostics.csv").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("t,Q,E,K,L,P,V,Vp,linf_1")
    run = json.loads((out / "report.json").read_text())["run"]
    assert run == {"status": "completed", "monitor": None, "t_detect": None,
                   "steps": 200, "rejected": 0, "dt_final": 1e-3, "dt_smallest": 1e-3}


def _radial5_evolve(tmp_path, dt, t_end):
    """The dim-5 radial evolve scenario: exit code and measured criteria."""
    out = tmp_path / f"ev5-{dt}"
    code = main(["evolve", "--kind", "radial", "--dim", "5", "--points", "512",
                 "--extent", "15", "--dt", dt, "--t-end", t_end, "--out", str(out)])
    criteria = json.loads((out / "report.json").read_text())["criteria"]
    return code, {c["name"]: c["measured"] for c in criteria}


def test_radial_evolve_scenario_passes_its_gates(tmp_path):
    # Crank-Nicolson is unitary in the quadrature norm of the radial grid
    code, measured = _radial5_evolve(tmp_path, "1e-3", "2")
    assert code == 0
    assert measured["charge drift"] <= 1e-8 and measured["energy drift"] <= 1e-6


def test_radial_evolve_energy_drift_second_order(tmp_path):
    drifts = [_radial5_evolve(tmp_path, dt, "0.5")[1]["energy drift"]
              for dt in ("1e-3", "5e-4", "2.5e-4")]
    for coarse, fine in zip(drifts, drifts[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.1)


def test_virial_scenario(tmp_path):
    out = tmp_path / "vir"
    code = main(["virial", "--model", "shg3", "--kind", "cartesian", "--dim", "1",
                 "--points", "256", "--extent", "20", "--dt", "1e-3",
                 "--t-end", "0.3", "--sample-every", "10", "--out", str(out)])
    assert code == 0


def test_scaling_law_scenario(tmp_path):
    out = tmp_path / "sc"
    code = main(["scaling-law", "--model", "uv2", "--kind", "cartesian", "--dim", "1",
                 "--points", "256", "--extent", "25", "--nu", "1.0", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    ratio = [c for c in payload["criteria"] if c["name"] == "I_(2nu)/I_nu"][0]
    assert ratio["pass"]


def test_radial_run_loads_only_scipys_lapack_extension(tmp_path):
    # Cartesian transforms are numpy's; radial grids load scipy's compiled
    # LAPACK wrapper from its file, without importing scipy or scipy.linalg
    script = f"""
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import qnls
from qnls.cli import main
assert not scipy_modules(), "import qnls loaded " + ", ".join(scipy_modules())
base = ["evolve", "--model", "shg3", "--dim", "1", "--points", "64", "--extent", "8",
        "--dt", "1e-2", "--t-end", "0.05", "--sample-every", "1"]
main(base + ["--kind", "cartesian", "--out", {str(tmp_path / "cartesian")!r}])
assert not scipy_modules(), "a Cartesian run loaded " + ", ".join(scipy_modules())
main(base + ["--kind", "radial", "--out", {str(tmp_path / "radial")!r}])
loaded = scipy_modules()
assert loaded == ["scipy.linalg._flapack"], "a radial run loaded " + ", ".join(loaded)
"""
    src = str(Path(qnls.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
