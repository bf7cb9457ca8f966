"""Record the benchmark's baseline in ``perfbench/baseline.json``.

For each workload, runs ``run.py --trace 0`` as fresh commands of
``run_seconds`` each, two ways:

* ``across_seeds``: once per seed 3..12, as a comparison between two
  commits runs it;
* ``repeat_seed``: ten times at seed 3, the spread one command shows
  when nothing but the host changes;

then once with ``--trace 1`` at seed 3 for the per-layer breakdown.
Each set records every end-to-end value with its median, quartiles and
spread (quartile distance over median).  The file also records why each
workload was chosen, its ``RunSpec``, the machine (nproc, Python and
numpy versions) and the git revision of the measured program.

Usage: python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import quartiles  # noqa: E402
from workloads import BENCHMARK, ROOT, WHY, WORKLOADS  # noqa: E402

SEEDS = list(range(3, 13))
REPEAT_SEED = 3
REPEATS = 10


def run_command(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: benchmark failed")
    return result


def command_set(workload: str, seeds: list) -> dict:
    """One untraced command per entry of ``seeds``; per-metric statistics."""
    values: dict[str, list] = {}
    units = {}
    attempted = failed = 0
    for seed in seeds:
        result = run_command(workload, seed, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
            units[metric] = m["unit"]
    metrics = {}
    for metric, vals in values.items():
        q1, median, q3 = quartiles(vals)
        metrics[metric] = {
            "unit": units[metric], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(vals), "values": vals,
        }
    print(f"{workload} seeds {seeds}: spreads " + ", ".join(
        f"{k} {v['spread']:.4f}" for k, v in metrics.items()), flush=True)
    return {"seeds": seeds, "attempted": attempted, "failed": failed, "end_to_end": metrics}


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
    }


def main() -> int:
    record = {"machine": machine(), "run_seconds": BENCHMARK["run_seconds"],
              "workloads": {}}
    for name, workload in WORKLOADS.items():
        traced = run_command(name, REPEAT_SEED, 1)
        record["workloads"][name] = {
            "why": WHY[name],
            "run_spec": workload.spec,
            "across_seeds": command_set(name, SEEDS),
            "repeat_seed": command_set(name, [REPEAT_SEED] * REPEATS),
            "per_layer": {
                "seed": REPEAT_SEED,
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
