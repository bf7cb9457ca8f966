"""Outside-in scale benchmark of the BRISA reproduction.

Runs one named workload (or ``all``) through ``scenarios.run_spec`` —
the entry point behind ``repro scale`` — for ``--seconds`` seconds
(default: ``run_seconds`` of ``BENCHMARK.json``), and for at least
``MIN_SAMPLES`` runs, one fresh single-threaded process per run, one run
at a time.  Prints every
metric by name with its unit, median and quartiles, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer breakdown of the traced ones, with the tracing overhead; each
traced run writes its spans under ``perfbench/out/``.

``attempted`` counts the (stream, seq, receiver) triples every run was
expected to deliver and ``failed`` the undelivered ones; a run that
raises or fails a check counts all its triples as failed, and the
command then exits 1.

Usage: python3 perfbench/run.py --workload NAME|all [--seed 3] [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import BENCHMARK, E2E_UNITS, LAYER_UNITS, ROOT, WORKLOADS  # noqa: E402

#: Every command takes at least this many samples (untraced runs, or
#: untraced/traced pairs with ``--trace 1``), even past ``--seconds``:
#: a flood-xxl run takes ~15 s.
MIN_SAMPLES = 3
#: No sample starts unless one as long as the last still ends within this
#: many seconds of the command's start (it must exit within 180 s).
BUDGET_S = 150.0
RUN_TIMEOUT_S = 170.0


def expected_triples(workload) -> int:
    """(stream, seq, receiver) triples one run of ``workload`` must deliver."""
    from repro.experiments.scale import get_scale

    spec = workload.spec
    streams = spec.get("streams", 1)
    population = spec.get("nodes") or get_scale(spec["size"]).cluster_nodes
    return (population - 1) * spec["messages"] * streams


def run_once(name: str, seed: int, traced: bool) -> dict:
    """One run in a fresh process; returns its report, or a failure
    report (``problems`` set, no figures) if it raised or timed out."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"run timed out after {RUN_TIMEOUT_S:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"run exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values_by_name: dict, units: dict, lines: list) -> dict:
    """Median of each metric; quartiles and sample count go to ``lines``."""
    out = {}
    for name, unit in units.items():
        values = values_by_name.get(name)
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "unit": unit}
        lines.append(
            f"  {name:28s} {median:14.6g} {unit:10s} "
            f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"
        )
    return out


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    expected = expected_triples(workload)
    kinds = (False, True) if trace else (False,)
    runs = []
    start = time.monotonic()
    for sample in itertools.count(1):
        sample_start = time.monotonic()
        for traced in kinds:
            report = run_once(name, seed, traced)
            report["traced"] = traced
            report["ok"] = "counters" in report and not report["problems"]
            runs.append(report)
        now = time.monotonic()
        elapsed = now - start
        if elapsed >= seconds and sample >= MIN_SAMPLES:
            break
        if elapsed + (now - sample_start) > BUDGET_S:
            break

    problems = []
    attempted = failed = 0
    reference = None
    for i, report in enumerate(runs):
        tag = f"run {i} ({'traced' if report['traced'] else 'untraced'})"
        attempted += expected
        if reference is None and report["ok"]:
            reference = report["counters"]
        if not report["ok"]:
            run_problems = report["problems"]
        elif report["expected"] != expected:
            run_problems = [f"expected {report['expected']} triples, not {expected}"]
        elif report["counters"] != reference:
            run_problems = [f"deterministic counters {report['counters']} differ "
                            f"from the first run's {reference}"]
        else:
            failed += report["undelivered"]
            continue
        failed += expected
        problems += [f"{tag}: {p}" for p in run_problems]

    plain = [r for r in runs if r["ok"] and not r["traced"]]
    traced_runs = [r for r in runs if r["ok"] and r["traced"]]
    lines = [f"{name}: seed {seed}, {len(runs)} run(s), "
             f"{failed} of {attempted} triples undelivered"]
    if trace:
        values = {k: [r["layers"][k] for r in traced_runs if k in r["layers"]]
                  for k in LAYER_UNITS if k != "trace.overhead_s"}
        # Runs alternate untraced, traced: difference each adjacent pair,
        # so a slow spell of the host hits both sides of a pair alike.
        values["trace.overhead_s"] = [
            t["e2e"]["wall_s"] - u["e2e"]["wall_s"]
            for u, t in zip(runs[::2], runs[1::2])
            if u["ok"] and t["ok"]
        ]
        metrics = summarize(values, LAYER_UNITS, lines)
        wanted = LAYER_UNITS
    else:
        values = {k: [r["e2e"][k] for r in plain if k in r["e2e"]] for k in E2E_UNITS}
        metrics = summarize(values, E2E_UNITS, lines)
        wanted = E2E_UNITS
    missing = [k for k in wanted if k not in metrics]
    if missing:
        problems.append(f"no figures for {', '.join(missing)}")
    for p in problems:
        lines.append(f"  FAILED {p}")
    print("\n".join(lines), flush=True)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing (run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: bench(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
