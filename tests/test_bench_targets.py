"""The traced benchmark patches library names in place; each must still be
defined where the benchmark looks it up, or its traced runs break."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_targets_are_defined_on_their_owners(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    targets = harness.trace_targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, f"bench/harness.py traces names that are gone: {missing}"
