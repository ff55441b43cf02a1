"""One measured invocation in a fresh process.

usage: python3 bench/worker.py <workload> <seed> <trace 0|1> <spans.csv>

Imports qnls, makes the warm-up call and notes the time (``ready_at``, in
seconds since the epoch, so that ``run.py`` can subtract the time it
launched this process and get the set-up time).  Then it runs the scenario
once untraced and, with trace 1, once more traced in the same process (so
the difference of the two is the tracing overhead, free of the
process-to-process spread), and prints one JSON line with the result.
"""

import json
import resource
import sys
import time

import harness
from tracer import Tracer
from workloads import WORKLOADS, scenario_argv


def summary(rep: harness.Rep, unit: str) -> dict:
    return {"wall_s": rep.wall_s, "ok": rep.ok, "why_failed": rep.why_failed,
            "work": rep.work(unit), "results": rep.results(),
            "layers": rep.layers}


def main(name: str, seed: str, trace: str, spans: str) -> None:
    workload = WORKLOADS[name]
    argv = scenario_argv(workload, int(seed))
    cli = harness.load_qnls()
    harness.warm_up(cli, argv)
    ready_at = time.time()
    outdir = harness.OUT / name
    outdir.mkdir(parents=True, exist_ok=True)
    out = {"ready_at": ready_at,
           "plain": summary(harness.run_once(cli, argv, outdir), workload.unit)}
    if trace == "1":
        tracer = Tracer()
        out["traced"] = summary(harness.run_once(cli, argv, outdir, tracer), workload.unit)
        tracer.write_csv(spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = harness.environment()
    print(json.dumps(out, default=float), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
