"""The benchmark's workloads: three ``qnls`` CLI scenarios and their seeds.

Seed 0 gives each scenario's argument list exactly as listed here.  Any
other seed scales one physical parameter of the scenario by a factor drawn
uniformly from [1 - SPAN, 1 + SPAN], through a flag the scenario already
has; all three scenarios pass their own gates across that range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPAN = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]     # scenario arguments at seed 0, without --out
    flag: str                 # the flag a nonzero seed varies
    base: float               # its value at seed 0 (the scenario default if absent)
    unit: str                 # work unit per grid point: "steps" or "iterations"
    smoke: tuple[str, ...]    # arguments overriding argv for the harness self-test


WORKLOADS = {w.name: w for w in (
    Workload(
        name="evolve_cart2d",
        argv=("evolve", "--model", "shg3", "--kind", "cartesian", "--dim", "2",
              "--points", "128", "--extent", "12", "--dt", "1e-3", "--t-end", "0.3"),
        flag="--chi", base=1.0, unit="steps",
        smoke=("--points", "32", "--t-end", "0.02")),
    Workload(
        name="blowup_radial5",
        argv=("blowup", "--model", "shg3", "--kind", "radial", "--dim", "5",
              "--points", "1024", "--extent", "12", "--amplitude", "1.2",
              "--dt", "1e-4", "--t-end", "5"),
        flag="--amplitude", base=1.2, unit="steps",
        smoke=("--points", "256", "--amplitude", "0.9", "--t-end", "0.01")),
    Workload(
        name="groundstate_cart2d",
        argv=("groundstate", "--model", "shg3", "--kind", "cartesian", "--dim", "2",
              "--points", "256", "--extent", "12"),
        flag="--omega", base=1.0, unit="iterations",
        smoke=("--points", "96")),
)}


def parameter(workload: Workload, seed: int) -> float:
    """The varied parameter's value at this seed."""
    if seed == 0:
        return workload.base
    return workload.base * random.Random(seed).uniform(1.0 - SPAN, 1.0 + SPAN)


def scenario_argv(workload: Workload, seed: int, smoke: bool = False) -> list[str]:
    """Scenario arguments for this seed; later flags override earlier ones."""
    argv = list(workload.argv)
    if seed != 0:
        argv += [workload.flag, repr(parameter(workload, seed))]
    if smoke:
        argv += list(workload.smoke)
    return argv
