"""Run every workload over several seeds and report each metric's spread.

usage: python3 bench/suite.py [--seeds 0 1 2 ...] [--seconds S] [--label NAME]
       python3 bench/suite.py --compare FIRST.json SECOND.json

Runs every workload in BENCHMARK.json with tracing off; each (seed, workload)
pair is one ``run.py`` process.  Workloads are interleaved within each seed,
in an order rotated by the seed, so that slow spells of a shared host fall on
all of them.  Every run's metrics are printed
by name with their unit; then, per workload and end-to-end metric, the
median of the runs and the spread (Q3 - Q1) / median from
``statistics.quantiles(values, n=4)``, set against the bound in
BENCHMARK.json.  All results are saved to .bench_out/suite-<label>.json.

--compare reads two saved suites of the same code and checks, for every
workload and metric, that the second median is no worse than the first by
more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180  # the longest one run may take


def run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def summarize(results: dict, bounds: dict) -> bool:
    steady = True
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} "
              f"invocations failed")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            bound = bounds[name]
            ok = rel <= bound / 3
            steady &= ok
            print(f"  {name:40s} median {med:.6g} {unit:9s} spread {rel:.4f}  "
                  f"bound {bound}  {'ok' if ok else 'SPREAD ABOVE BOUND/3'}")
    return steady


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok &= worse <= bound
            print(f"{workload:20s} {name:22s} {a:.6g} -> {b:.6g}  "
                  f"worse by {worse:+.4f} (bound {bound})  {verdict}")
    return ok


def main(argv=None) -> int:
    s = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in s["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--seconds", type=float, default=s["run_seconds"])
    p.add_argument("--label", default="latest")
    p.add_argument("--compare", nargs=2, metavar="SUITE_JSON")
    args = p.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(f).read_text())["results"] for f in args.compare)
        return 0 if compare(first, second, s) else 1

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i, seed in enumerate(args.seeds):
        k = i % len(names)
        for workload in names[k:] + names[:k]:
            out = run(workload, seed, args.seconds)
            results[workload].append(out)
            shown = "  ".join(f"{n}={m['value']:.6g} {m['unit']}"
                              for n, m in out["metrics"].items())
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"failed_frac={out['failed']}/{out['attempted']}  {shown}", flush=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"suite-{args.label}.json").write_text(json.dumps(
        {"seeds": args.seeds, "seconds": args.seconds, "results": results}, indent=1) + "\n")
    steady = summarize(results, {m["name"]: m["bound"] for m in s["end_to_end"]})
    correct = all(r["correct"] for runs in results.values() for r in runs)
    print(f"\nall correct: {correct}; every spread within a third of its bound: {steady}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
