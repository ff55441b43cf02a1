"""Benchmark entry point: one workload, one seed, one measured window.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

S defaults to ``run_seconds`` in BENCHMARK.json.

Starts one worker process after another for about S seconds.  Each worker
imports qnls, makes one warm-up call, runs the workload's ``qnls`` scenario
once in-process and gates it on the criteria in its own report.json.  A
worker per invocation spreads each figure over several process layouts; on
a shared host the per-process spread is larger than the spread within one
process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics, measured with tracing off, each the
median over the run's workers:
  setup_s               launch -> qnls imported and one warm-up call made
  wall_s                wall time of one scenario invocation
  mpoint_updates_per_s  grid points x accepted steps (or solver iterations)
                        / wall_s, in millions
  peak_rss_mb           peak resident memory of a worker, which runs this
                        workload only

--trace 1 has each worker run the scenario untraced and then traced, and
reports the per-layer figures of the worker whose traced wall time is the
median (see NOTES.md for how to read them), with trace.overhead_s the
median over workers of traced minus untraced wall time.  That worker's spans are kept
in .bench_out/<workload>/spans-seed<N>.csv.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from workloads import WORKLOADS, scenario_argv

WORKER_TIMEOUT_S = 170


def start_worker(name: str, seed: int, trace: int, spans: Path) -> dict:
    """Run one worker; return its result with its set-up time added."""
    worker = Path(__file__).resolve().parent / "worker.py"
    launched = time.time()
    proc = subprocess.run([sys.executable, str(worker), name, str(seed), str(trace),
                           str(spans)], cwd=harness.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} failed (exit code {proc.returncode})")
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("ready_at") - launched
    return out


def show(rep: dict, label: str) -> None:
    verdict = "pass" if rep["ok"] else "FAIL: " + rep["why_failed"]
    print(f"{label}: {rep['wall_s']:.4f} s {verdict} {json.dumps(rep['results'])}",
          flush=True)


def end_to_end(workers: list[dict]) -> dict[str, tuple[float, str]]:
    med = statistics.median
    return {
        "setup_s": (med(w["setup_s"] for w in workers), "s"),
        "wall_s": (med(w["plain"]["wall_s"] for w in workers), "s"),
        "mpoint_updates_per_s": (med(w["plain"]["work"] / w["plain"]["wall_s"] / 1e6
                                     for w in workers), "Mpoint/s"),
        "peak_rss_mb": (med(w["peak_rss_mb"] for w in workers), "MB"),
    }


def per_layer(workers: list[dict]) -> tuple[int, dict]:
    """Index of the median traced worker and its per-layer figures."""
    order = sorted(range(len(workers)), key=lambda i: workers[i]["traced"]["wall_s"])
    i = order[(len(order) - 1) // 2]
    w = workers[i]
    out = {k: tuple(vu) for k, vu in w["traced"]["layers"].items()}
    out["trace.overhead_s"] = (statistics.median(
        w["traced"]["wall_s"] - w["plain"]["wall_s"] for w in workers), "s")
    return i, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=json.loads(
        (harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed}: "
          f"qnls {' '.join(scenario_argv(workload, args.seed))}", flush=True)
    outdir = harness.OUT / workload.name
    outdir.mkdir(parents=True, exist_ok=True)

    workers: list[dict] = []

    def spans(i: int) -> Path:
        return outdir / f"spans-seed{args.seed}-worker{i}.csv"

    start = time.perf_counter()
    while True:
        w = start_worker(workload.name, args.seed, args.trace, spans(len(workers)))
        workers.append(w)
        n = len(workers)
        show(w["plain"], f"worker {n} (set-up {w['setup_s']:.4f} s)")
        if args.trace:
            show(w["traced"], f"worker {n} traced")
        elapsed = time.perf_counter() - start
        # stop when another worker would end further past the window than this one
        if elapsed + 0.5 * elapsed / n >= args.seconds:
            break
    print("env " + json.dumps(workers[-1]["env"]))

    reps = [w[k] for w in workers for k in ("plain", "traced") if k in w]
    failed = sum(not r["ok"] for r in reps)
    if args.trace:
        chosen, metrics = per_layer(workers)
        for i in range(len(workers)):
            if i == chosen:
                spans(i).replace(outdir / f"spans-seed{args.seed}.csv")
            else:
                spans(i).unlink()
    else:
        metrics = end_to_end(workers)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed}/{len(reps)} = {failed / len(reps)!r}")
    (outdir / f"results-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "workers": workers},
                   indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
