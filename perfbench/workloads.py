"""The benchmark's named workloads and metrics.

Each workload is one ``RunSpec`` (the value ``repro scale`` builds and
``scenarios.run_spec`` dispatches) minus its seed, which the benchmark
takes as an argument.  Every workload pins the delivery kernel a user
would pick today for that stack and size.

Metric names, units and each workload's reason for being are read from
``BENCHMARK.json`` at the root of the checkout, so they live in one place.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

#: End-to-end metrics (untraced runs): name -> unit.
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
#: Per-layer metrics (traced runs): name -> unit.
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
#: BRISA message kinds reported as ``brisa.msgs.<kind>`` (zero when unsent).
BRISA_KINDS = tuple(
    name[len("brisa.msgs."):] for name in LAYER_UNITS if name.startswith("brisa.msgs.")
)
#: Why each workload was chosen.
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``RunSpec`` keyword arguments, without ``seed``.
    spec: dict
    #: Lossless workloads must deliver every (stream, seq, receiver) triple.
    lossless: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="brisa-emergence",
            spec=dict(stack="brisa", size="xl", messages=10, kernel="slotted"),
            lossless=True,
        ),
        Workload(
            name="brisa-lossy-powerlaw",
            spec=dict(
                stack="brisa", size="xl", messages=20, kernel="slotted",
                topology="powerlaw", loss_percent=2.0,
            ),
            lossless=False,
        ),
        Workload(
            name="flood-xxl",
            spec=dict(stack="flood", size="xxl", messages=10, kernel="vectorized"),
            lossless=True,
        ),
    )
}
assert set(WORKLOADS) == set(WHY), "workloads.py and BENCHMARK.json name different workloads"
