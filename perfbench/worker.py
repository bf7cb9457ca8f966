"""One benchmark run in a fresh process.

Builds the workload's ``RunSpec`` at the given seed, runs it through
``scenarios.run_spec`` (the entry point behind ``repro scale``), checks
the outcome and prints one JSON line: the end-to-end figures, the
deterministic counters, the delivery tally and, with ``--trace``, the
per-layer breakdown.  With ``--trace`` the span table is also written
to ``perfbench/out/<workload>-seed<n>-spans.json``.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.experiments import bootstrap, scale_brisa, scale_flood, scale_runner  # noqa: E402
from repro.experiments.scale_runner import RunSpec, ScaleRunner  # noqa: E402
from repro.experiments.scenarios import run_spec  # noqa: E402
from repro.sim.monitor import DISSEMINATION  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import BRISA_KINDS, WORKLOADS  # noqa: E402


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public boundary, where the program looks it up."""
    from repro.baselines.flood import SlottedFloodKernel
    from repro.core.brisa import BrisaNode
    from repro.core.brisa_slotted import SlottedBrisaKernel
    from repro.core.flood_vectorized import VectorizedFloodKernel
    from repro.membership.hyparview import HyParViewNode
    from repro.sim.engine import Simulator
    from repro.sim.monitor import Metrics
    from repro.sim.network import Network

    wrap = tracer.wrap_attr
    for key in bootstrap.TOPOLOGY_BUILDERS:
        tracer.wrap_item(
            bootstrap.TOPOLOGY_BUILDERS, key, "bootstrap.synthesize",
            cold=True, units=lambda a, r: r.edges,
        )
    wrap(bootstrap, "synthesize_passive_arrays", "bootstrap.synthesize", cold=True)
    wrap(bootstrap, "assert_valid_overlay", "bootstrap.validate", cold=True)
    wrap(Network, "spawn_many", "construct.spawn", cold=True, units=lambda a, r: len(r))
    wrap(HyParViewNode, "install_overlay", "install.overlay")
    wrap(Network, "register_links_csr", "install.links", cold=True)
    for kernel in (SlottedBrisaKernel, SlottedFloodKernel, VectorizedFloodKernel):
        wrap(kernel, "install_rows", "install.rows", cold=True)
    wrap(Simulator, "run_until_idle", "engine", cold=True)
    wrap(Simulator, "schedule", "engine.timers")
    # Network._deliver_fan stays unwrapped: the engine claims batch-drain
    # runs by that callable's identity.
    wrap(Network, "send", "network.send")
    for attr in ("send_many", "send_fan_unchecked", "send_fan_batch_unchecked"):
        wrap(Network, attr, "network.fan")
    for attr in ("peer_stats", "peer_position"):
        wrap(Network, attr, "network.peer_stats")
    fan_receptions = lambda a, r: len(a[2])  # noqa: E731  (self, src, dsts, msg, size)
    wrap(SlottedBrisaKernel, "on_fan", "kernel", units=fan_receptions)
    wrap(SlottedFloodKernel, "on_fan", "kernel", units=fan_receptions)
    wrap(VectorizedFloodKernel, "on_fan_batch", "kernel",
         units=lambda a, r: sum(len(fan[1]) for fan in a[1]))
    wrap(BrisaNode, "on_brisa_data", "brisa.delegated")
    wrap(BrisaNode, "on_brisa_retransmit", "brisa.retransmit")
    for attr, value in list(vars(Metrics).items()):
        if attr.startswith(("account_", "record_")) and callable(value):
            wrap(Metrics, attr, "metrics")
    wrap(scale_brisa, "brisa_stream_outcomes", "analyse.outcomes", cold=True)
    wrap(scale_flood, "flood_stream_outcomes", "analyse.outcomes", cold=True)
    wrap(scale_runner, "extract_structure", "analyse.structure", cold=True)
    wrap(scale_runner, "is_complete_structure", "analyse.structure", cold=True)


def layer_metrics(tracer: Tracer, result, runner, wall: float, phases: dict) -> dict:
    totals = tracer.totals
    metrics = runner.network.metrics
    m = {
        "phase.disseminate_s": phases["disseminate_s"],
        "phase.analyse_s": phases["analyse_s"],
    }
    _, m["bootstrap.synthesize_s"], _, m["bootstrap.edges"] = totals("bootstrap.synthesize")
    m["bootstrap.validate_s"] = totals("bootstrap.validate")[1]
    _, m["construct.spawn_s"], _, m["construct.nodes"] = totals("construct.spawn")
    m["install.overlay_s"] = totals("install.overlay")[1]
    m["install.links_s"] = totals("install.links")[1]
    m["install.rows_s"] = totals("install.rows")[1]
    m["engine.events"] = result.events
    m["engine.self_s"] = totals("engine")[2]
    m["engine.peak_pending"] = runner.sim.peak_pending
    m["engine.timers"] = totals("engine.timers")[0]
    for layer in ("send", "fan", "peer_stats"):
        calls, _, own, _ = totals(f"network.{layer}")
        m[f"network.{layer}.calls"] = calls
        m[f"network.{layer}.self_s"] = own
    m["network.dropped_loss"] = result.dropped_loss
    m["network.tx_bytes"] = metrics.total_bytes(DISSEMINATION)
    m["kernel.calls"], _, m["kernel.self_s"], m["kernel.receptions"] = totals("kernel")
    delegations, delegated_s, _, _ = totals("brisa.delegated")
    m["brisa.delegations"] = delegations
    m["brisa.delegation_share"] = delegations / result.receptions if result.receptions else 0.0
    m["brisa.delegated_s"] = delegated_s
    m["brisa.retransmits"] = totals("brisa.retransmit")[0]
    for kind in BRISA_KINDS:
        m[f"brisa.msgs.{kind}"] = metrics.msg_counts.get(f"brisa_{kind}", {}).get(DISSEMINATION, 0)
    m["metrics.calls"], _, m["metrics.self_s"], _ = totals("metrics")
    m["analyse.outcomes_s"] = totals("analyse.outcomes")[1]
    m["analyse.structure_s"] = totals("analyse.structure")[1]
    m["trace.unattributed_s"] = wall - tracer.top_level_s()
    return m


def run(workload_name: str, seed: int, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    spec = RunSpec(seed=seed, **workload.spec)
    tracer = Tracer()
    runners = []
    original_drain = vars(ScaleRunner)["drain"]

    def drain(self, start):
        runners.append(self)
        return original_drain(self, start)

    ScaleRunner.drain = drain
    try:
        # The two once-per-run phase marks, traced or not.
        tracer.wrap_attr(ScaleRunner, "schedule", "phase.schedule", cold=True)
        tracer.wrap_attr(ScaleRunner, "drain", "phase.drain", cold=True)
        if trace:
            install_layers(tracer)
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = run_spec(spec)
        t_result = time.perf_counter()
        problems = []
        if len(runners) != 1:
            raise RuntimeError(f"expected one ScaleRunner drain, saw {len(runners)}")
        runner = runners[0]
        if runner.sim.pending != 0:
            problems.append(f"heap not drained: {runner.sim.pending} events pending")
        if spec.stack == "brisa":
            for row in result.per_stream:
                if row.get("structure_complete") is not True:
                    problems.append(
                        f"stream {row['stream']} structure not complete and acyclic "
                        f"(structure_complete={row.get('structure_complete')!r}): "
                        f"{row.get('structure_reason', '')}"
                    )
        receivers = sum(row["receivers"] for row in result.per_stream)
        expected = receivers * spec.messages
        undelivered = expected - result.deliveries
        if workload.lossless and undelivered:
            problems.append(f"lossless run left {undelivered} of {expected} triples undelivered")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        tracer.uninstall()
        ScaleRunner.drain = original_drain

    (schedule,) = [s for s in tracer.spans if s[0] == "phase.schedule"]
    (drained,) = [s for s in tracer.spans if s[0] == "phase.drain"]
    phases = {
        "disseminate_s": drained[2] - drained[1],
        "analyse_s": t_result - drained[2],
    }
    metrics = runner.network.metrics
    tx_bytes = metrics.total_bytes(DISSEMINATION)
    duplicates = getattr(result, "duplicates_per_node", None)
    if duplicates is None:
        duplicates = (result.receptions - result.deliveries) / receivers
    out = {
        "workload": workload_name,
        "seed": seed,
        "traced": trace,
        "problems": problems,
        "expected": expected,
        "undelivered": undelivered,
        "e2e": {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_s": schedule[2] - t0,
            "receptions_per_s": result.receptions / result.wall_time,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "delivered_fraction": result.deliveries / expected,
            "duplicates_per_receiver": duplicates,
            "tx_bytes_per_delivery": tx_bytes / result.deliveries,
        },
        # Deterministic at a given seed: every run of one workload and
        # seed, traced or not, must reproduce them exactly.
        "counters": {
            "events": result.events,
            "receptions": result.receptions,
            "deliveries": result.deliveries,
            "tx_bytes": tx_bytes,
            "dropped_loss": result.dropped_loss,
            "peak_pending": runner.sim.peak_pending,
            "msg_counts": {
                kind: phases_.get(DISSEMINATION, 0)
                for kind, phases_ in sorted(metrics.msg_counts.items())
            },
        },
    }
    if trace:
        out["layers"] = layer_metrics(tracer, result, runner, wall, phases)
        spans_path = os.path.join(HERE, "out", f"{workload_name}-seed{seed}-spans.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(t0), fh, indent=1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip the interpreter's teardown of a 100k-node heap: the report is
    # out, and freeing it object by object only stretches the run.
    os._exit(code)
