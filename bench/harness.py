"""Measurement code shared by the benchmark's entry point, worker and
self-test.

Nothing here imports numpy or qnls at module level: ``load_qnls`` sets
``QNLS_THREADS=1`` and the BLAS pool variables first, because the thread
cap is read when numpy is first imported.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
THREAD_VARS = ("QNLS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_qnls():
    """Import the checkout's qnls with one BLAS thread; return its cli module.

    Raises ImportError when the checkout has no ``src/qnls`` or when the
    import resolves to a copy elsewhere.
    """
    # qnls only sets the pool variables when they are unset; pin them all
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "qnls" / "__init__.py").is_file():
        raise ImportError(f"no qnls package under {src}")
    sys.path.insert(0, str(src))
    import qnls
    from qnls import cli
    if Path(qnls.__file__).resolve().parent != (src / "qnls").resolve():
        raise ImportError(f"qnls imported from {qnls.__file__}, not from {src}")
    return cli


def warm_up(cli, argv) -> None:
    """One untimed library call on the scenario's model and grid: the
    functionals of a Gaussian state, which fills the grid caches."""
    import numpy as np
    from qnls import functionals, grids
    st = cli.build_settings(cli.make_parser().parse_args(argv))
    model, grid = st.resolve_model(), st.resolve_grid()
    comps = np.stack([np.exp(-grids.radius_sq(grid)) for _ in range(model.l)])
    functionals.snapshot_of(grids.FieldState(model, grid, comps.astype(complex), 0.0))


def git_commit(root: Path) -> str:
    """The commit checked out at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# one scenario invocation


@dataclass
class Rep:
    """One scenario invocation: its timing, gate verdict and recorded values."""

    wall_s: float
    ok: bool
    why_failed: str = ""
    outcomes: list = field(default_factory=list)   # EvolutionOutcome per run_with_monitors
    solves: list = field(default_factory=list)     # GroundStateResult per petviashvili_solve
    criteria: list = field(default_factory=list)   # report.json criteria
    layers: dict = field(default_factory=dict)     # traced reps only

    def points(self) -> int:
        grids = [o.final.grid for o in self.outcomes] or [s.grid for s in self.solves]
        return grids[0].size if grids else 0

    def work(self, unit: str) -> int:
        """Grid points times accepted steps or solver iterations."""
        if unit == "steps":
            return self.points() * sum(o.steps for o in self.outcomes)
        return self.points() * sum(s.iterations for s in self.solves)

    def results(self) -> dict:
        """Values recorded per run (not gated by the benchmark)."""
        out = {c["name"]: c["measured"] for c in self.criteria
               if c["name"] in ("energy drift", "charge drift", "residual")
               or c["name"].startswith("identity ")}
        for i, s in enumerate(self.solves):
            out[f"solve{i}.iterations"] = s.iterations
            out[f"solve{i}.residual"] = s.residual
            out[f"solve{i}.pohozaev_dev"] = list(s.pohozaev_dev)
        for i, o in enumerate(self.outcomes):
            out[f"run{i}.status"] = o.status
            out[f"run{i}.t_detect"] = o.t_detect
            out[f"run{i}.steps_accepted"] = o.steps
        return out


def read_gates(report_path: Path) -> tuple[bool, str, list]:
    """The scenario's own verdict: every criterion in report.json passes."""
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return False, f"no readable report.json: {exc}", []
    criteria = report.get("criteria", [])
    failed = [c["name"] for c in criteria if not c.get("pass")]
    if not criteria:
        return False, "report.json has no criteria", criteria
    if failed or not report.get("pass"):
        return False, "failed criteria: " + ", ".join(failed), criteria
    return True, "", criteria


def trace_targets() -> list:
    """(owner, attribute, span name, work) for every traced function.

    Names bound by ``from ... import`` are patched in the module that calls
    them; methods are patched on their class.
    """
    from qnls import cli, evolve, groundstate, grids, nonlinearity

    def points(_self, z, *args, **kwargs):
        return z[0].size

    return [
        (nonlinearity.ModelSpec, "eval_fk", "nonlinearity.eval_fk", points),
        (nonlinearity.ModelSpec, "eval_F", "nonlinearity.eval_F", None),
        (evolve.Stepper, "step", "evolve.step", None),
        (evolve.Stepper, "nonlinear_half_step", "evolve.nonlinear_half_step", None),
        (evolve.Stepper, "linear_step", "evolve.linear_step", None),
        (cli, "run_with_monitors", "evolve.run_with_monitors", None),
        (evolve, "snapshot_of", "functionals.snapshot_of", None),
        (grids, "apply_laplacian", "grids.apply_laplacian", None),
        (grids, "norm_sq", "grids.norm_sq", None),
        (grids, "grad_sq_integral", "grids.grad_sq_integral", None),
        (cli, "petviashvili_solve", "groundstate.petviashvili_solve", None),
        (groundstate, "elliptic_residual", "groundstate.elliptic_residual", None),
    ]


@contextlib.contextmanager
def capturing(cli, rep: Rep):
    """Keep the objects the scenario's top-level library calls return."""
    originals = cli.run_with_monitors, cli.petviashvili_solve

    def run_with_monitors(*args, **kwargs):
        out = originals[0](*args, **kwargs)
        rep.outcomes.append(out)
        return out

    def petviashvili_solve(*args, **kwargs):
        out = originals[1](*args, **kwargs)
        rep.solves.append(out)
        return out

    cli.run_with_monitors, cli.petviashvili_solve = run_with_monitors, petviashvili_solve
    try:
        yield
    finally:
        cli.run_with_monitors, cli.petviashvili_solve = originals


def run_once(cli, argv, outdir: Path, tracer: Tracer | None = None) -> Rep:
    """Run ``qnls <argv> --out outdir`` in-process and gate it on its report.

    With a tracer, every function in ``trace_targets`` records spans under a
    root span ``cli.main`` of a new run id, and ``rep.layers`` holds the
    per-layer figures of that run.
    """
    report = outdir / "report.json"
    report.unlink(missing_ok=True)
    rep = Rep(wall_s=0.0, ok=False)
    gc.collect()
    with contextlib.ExitStack() as stack:
        stack.enter_context(capturing(cli, rep))
        main = cli.main
        if tracer is not None:
            tracer.run_id += 1
            stack.enter_context(tracer.patched(trace_targets()))
            main = tracer.wrap("cli.main", cli.main)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        t0 = time.perf_counter()
        try:
            rc = main(list(argv) + ["--out", str(outdir)])
        except (Exception, SystemExit) as exc:
            rc = None
            rep.why_failed = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        rep.wall_s = time.perf_counter() - t0
    if rc is not None:
        rep.ok, rep.why_failed, rep.criteria = read_gates(report)
        if rc != 0:
            rep.ok = False
            rep.why_failed = f"exit code {rc}; " + rep.why_failed
    if tracer is not None:
        rep.layers = layer_metrics(tracer, rep)
    return rep


# ---------------------------------------------------------------------------
# per-layer figures of one traced run

TOTAL_SPANS = ("functionals.snapshot_of", "groundstate.petviashvili_solve")


def layer_metrics(tracer: Tracer, rep: Rep) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced run.

    Every traced function has .calls and .self_s.  Their self times plus
    cli.self_s (the root span's self time) add up to the root span's
    duration; trace.unattributed_s is trace.wall_s, timed outside the root
    span, minus that duration.
    """
    rows = tracer.summary(tracer.run_id)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    for _, _, name, _ in trace_targets():
        row = rows.get(name, empty)
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    for name in TOTAL_SPANS:
        out[f"{name}.total_s"] = (rows.get(name, empty)["total_s"], "s")
    out["nonlinearity.eval_fk.points"] = (rows.get("nonlinearity.eval_fk", {}).get("work", 0),
                                          "count")
    accepted = sum(o.steps for o in rep.outcomes)
    attempts = out["evolve.step.calls"][0]
    out["evolve.steps_accepted"] = (accepted, "count")
    out["evolve.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    out["groundstate.iterations"] = (sum(s.iterations for s in rep.solves), "count")
    root = rows["cli.main"]
    out["cli.self_s"] = (root["self_s"], "s")
    out["trace.wall_s"] = (rep.wall_s, "s")
    out["trace.unattributed_s"] = (rep.wall_s - root["total_s"], "s")
    return out
