"""In-memory span tracer that times calls into a program from outside it.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and the id of the run it belongs
to.  Spans are appended to flat lists while the program runs and are
summarised or written out only afterwards, so a wrapped call costs two clock
reads and a few list appends.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded and nested, so children never overlap
and the self times of all spans of a run add up to the duration of its
outermost span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.work: dict[tuple[int, str], int] = {}
        self.run_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None):
        """Return fn wrapped in a span named name.

        work, if given, maps the call's arguments to a count that is summed
        per run under the span's name (for instance points evaluated).
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, opened, clock = self.parents, self.runs, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(opened[-1] if opened else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            opened.append(idx)
            if work is not None:
                key = (self.run_id, name)
                self.work[key] = self.work.get(key, 0) + work(*args, **kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                opened.pop()

        return traced

    @contextmanager
    def patched(self, targets):
        """Rebind each (owner, attribute, span name, work) target to a traced
        wrapper for the duration of the block, restoring the originals after.

        owner is the module or class where callers look the name up.
        """
        saved = []
        try:
            for owner, attr, name, work in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (summed self time) and total_s
        (summed duration; no traced function calls itself)."""
        idx = [i for i, r in enumerate(self.runs) if r == run_id]
        child_time = {i: 0.0 for i in idx}
        for i in idx:
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in idx:
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            row["total_s"] += dur
        for (run, name), count in self.work.items():
            if run == run_id:
                out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                out[name]["work"] = count
        return out

    def write_csv(self, path) -> None:
        """All spans, one per line: run,id,parent,name,start,end."""
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start,end\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.runs[i]},{i},{self.parents[i]},{name},"
                         f"{self.starts[i]!r},{self.ends[i]!r}\n")
