import json

import numpy as np
import pytest

from qnls.cli import main, parse_config_file
from qnls.nonlinearity import (CoefficientSet, ModelSpec, Monomial, TrilinearPotential,
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
    terms = (Monomial(0.5, (1, 1, 1), (0, 0, 0)), Monomial(0.5, (0, 0, 0), (1, 1, 1)))
    coeffs = CoefficientSet(alpha=np.ones(3), gamma=np.ones(3), beta=np.zeros(3))
    model = ModelSpec(coeffs=coeffs, potential=TrilinearPotential(l=3, terms=terms))
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
    assert set(solve) == {"iterations", "restarts", "residual"}
    assert solve["iterations"] > 0 and solve["restarts"] == 0 and solve["residual"] < 1e-8

    out2 = tmp_path / "thr"
    code = main(["threshold", "--archive", str(archive), "--amplitude", "0.9",
                 "--out", str(out2)])
    assert code == 0
    payload = json.loads((out2 / "report.json").read_text())
    assert payload["settings"]["classification"] == "'global'"

    out3 = tmp_path / "thr2"
    code = main(["threshold", "--archive", str(archive), "--amplitude", "1.2",
                 "--out", str(out3)])
    assert code == 0
    payload = json.loads((out3 / "report.json").read_text())
    assert payload["settings"]["classification"] == "'blowup'"


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
