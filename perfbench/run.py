"""Run one benchmark workload, check its outputs and print every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rma_fill --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run with timing shims around each layer and prints the per-layer metrics.
The human-readable report comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output check fails and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rma_fill", "ti_sampling", "serve_mixed")


def report(workload: str, seed: int, seconds: float, trace: bool, result) -> Dict[str, object]:
    """Print the human-readable report and return the final JSON object."""
    from perfbench import measure, spec, workloads

    metrics = spec.PER_LAYER if trace else spec.END_TO_END
    values = result.per_layer if trace else result.end_to_end
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    facts = measure.host_facts(workloads.N_JOBS)
    print("host: " + " ".join(f"{key}={value}" for key, value in facts.items()))
    for key, value in result.notes.items():
        print(f"note: {key} = {value}")
    for metric in metrics:
        line = f"  {metric.name:32s} {values[metric.name]:14.6g} {metric.unit:8s} {metric.meaning}"
        if metric.moves:
            line += f" [moves: {metric.moves}]"
        print(line)
    print(f"checks: {result.attempted} operations, {result.failed} failed")
    for error in result.errors[:20]:
        print(f"  FAILED {error}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric.name: {"value": float(values[metric.name]), "unit": metric.unit}
            for metric in metrics
        },
    }


def stop_child_processes() -> None:
    """Wait for every worker to end and stop multiprocessing's resource tracker.

    The library starts the tracker before its first worker pool and never
    stops it; left alone it outlives this process by the moment it takes to
    notice the parent is gone.  Stopping it here closes its pipe and waits
    for it to exit, so no process of the run is left behind.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(10.0)
        if child.is_alive():
            child.terminate()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads

    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    payload = report(args.workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(payload), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
