"""Self-test of the benchmark harness; takes a few seconds.

usage: python3 bench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic nested call with a
scripted clock, runs a smoke-size version of each workload through the same
``run_once`` path the benchmark uses (untraced and traced), and confirms
that a failing report, a nonzero exit and a raised exception each count as a
failed invocation.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import sys
import types

import harness
from tracer import Tracer
from workloads import SPAN, WORKLOADS, parameter, scenario_argv


def check(cond, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def test_tracer_arithmetic() -> None:
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    ns = types.SimpleNamespace()

    def leaf():
        now[0] += 32

    def inner():
        now[0] += 8
        ns.leaf()
        now[0] += 16

    def outer():
        now[0] += 1
        ns.inner()
        now[0] += 2
        ns.inner()
        now[0] += 4

    ns.leaf, ns.inner, ns.outer = leaf, inner, outer
    targets = [(ns, "leaf", "leaf", lambda: 3), (ns, "inner", "inner", None),
               (ns, "outer", "outer", None)]
    with tracer.patched(targets):
        ns.outer()
    check(ns.leaf is leaf and ns.outer is outer, "patched names are restored")
    s = tracer.summary(0)
    check(s["leaf"] == {"calls": 2, "self_s": 64.0, "total_s": 64.0, "work": 6},
          f"leaf: 2 calls, self 2x32, work 2x3 ({s['leaf']})")
    check(s["inner"] == {"calls": 2, "self_s": 48.0, "total_s": 112.0},
          f"inner: self = duration 56 minus child 32, twice ({s['inner']})")
    check(s["outer"] == {"calls": 1, "self_s": 7.0, "total_s": 119.0},
          f"outer: self 119 - 2x56 = 7 ({s['outer']})")
    check(sum(r["self_s"] for r in s.values()) == s["outer"]["total_s"],
          "self times add up to the outermost span")


def test_seeds() -> None:
    w = WORKLOADS["evolve_cart2d"]
    check(scenario_argv(w, 0) == "evolve --model shg3 --kind cartesian --dim 2 --points 128 "
          "--extent 12 --dt 1e-3 --t-end 0.3".split(), "seed 0 gives the listed inputs")
    check(scenario_argv(w, 7) == scenario_argv(w, 7), "a seed gives the same inputs twice")
    for w in WORKLOADS.values():
        vals = [parameter(w, seed) for seed in range(1, 50)]
        check(all(abs(v / w.base - 1) <= SPAN for v in vals) and len(set(vals)) == 49,
              f"{w.name}: seeds vary {w.flag} within +-{SPAN:.0%}")


def test_smoke_runs(cli) -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    outdir = harness.OUT / "selftest"
    for w in WORKLOADS.values():
        argv = scenario_argv(w, 1, smoke=True)
        rep = harness.run_once(cli, argv, outdir)
        check(rep.ok and rep.criteria and rep.work(w.unit) > 0,
              f"{w.name} smoke passes its {len(rep.criteria)} gates, work {rep.work(w.unit)}")
        tracer = Tracer()
        traced = harness.run_once(cli, argv, outdir, tracer)
        check(traced.ok, f"{w.name} smoke passes traced")
        layers = traced.layers
        root_s = tracer.summary(tracer.run_id)["cli.main"]["total_s"]
        self_sum = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
        check(abs(self_sum - root_s) < 1e-9,
              f"{w.name}: reported self times add up to the root span {root_s:.4f} s")
        gap = layers["trace.unattributed_s"][0]
        check(0 <= gap < 1e-3 and abs(root_s + gap - layers["trace.wall_s"][0]) < 1e-9,
              f"{w.name}: root span + unattributed {gap:.2e} s (under 1 ms) = traced wall")
        missing = per_layer - set(layers) - {"trace.overhead_s"}
        check(not missing, f"{w.name}: every per-layer metric reported (missing {missing})")
        check(cli.run_with_monitors.__module__ == "qnls.evolve"
              and cli.petviashvili_solve.__module__ == "qnls.groundstate",
              f"{w.name}: original functions restored after the run")


def test_failures_count(cli, tmp) -> None:
    # a report whose criteria fail, with the scenario's own tolerances
    argv = scenario_argv(WORKLOADS["evolve_cart2d"], 0, smoke=True) + ["--dt", "0.01",
                                                                      "--t-end", "0.05"]
    rep = harness.run_once(cli, argv, tmp)
    check(not rep.ok and "energy drift" in rep.why_failed,
          f"failing gate counts as failed ({rep.why_failed})")
    report = tmp / "report.json"
    report.write_text(json.dumps({"pass": True, "criteria": [
        {"name": "a", "pass": True}, {"name": "b", "pass": False}]}))
    ok, why, _ = harness.read_gates(report)
    check(not ok and "b" in why, "one failing criterion fails a report that claims pass")
    report.write_text(json.dumps({"pass": True, "criteria": []}))
    check(not harness.read_gates(report)[0], "a report without criteria fails")
    rep = harness.run_once(cli, ["blowup", "--kind", "radial", "--dim", "3", "--points", "64"],
                           tmp)
    check(not rep.ok and rep.why_failed.startswith("raised"),
          f"a raising scenario counts as failed ({rep.why_failed})")


def main() -> int:
    test_tracer_arithmetic()
    test_seeds()
    cli = harness.load_qnls()
    test_smoke_runs(cli)
    test_failures_count(cli, harness.OUT / "selftest-fail")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
