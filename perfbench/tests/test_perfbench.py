"""Tests of the benchmark itself: smoke runs, metric names, shims, checks."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, measure, run, spec, workloads
from perfbench.tracing import SHIMS, Tracer, resolve_owner

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace, capsys):
    result = workloads.run(workload, seed=1, seconds=1.0, trace=trace, tiny=True)
    payload = run.report(workload, 1, 1.0, trace, result)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(payload["metrics"]) == [metric["name"] for metric in listed]
    for metric in listed:
        emitted = payload["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    assert payload["correct"] and payload["failed"] == 0, result.errors
    assert payload["attempted"] >= 1
    if not trace:
        assert all(value["value"] > 0 for value in payload["metrics"].values())
    json.dumps(payload, allow_nan=False)
    assert f"checks: {result.attempted} operations, 0 failed" in capsys.readouterr().out


def test_traced_run_restores_every_wrapped_function():
    before = {shim: vars(resolve_owner(shim.owner)).get(shim.attribute) for shim in SHIMS}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for shim in SHIMS:
                assert vars(resolve_owner(shim.owner))[shim.attribute] is not before[shim]
            raise RuntimeError("leave the block early")
    for shim in SHIMS:
        assert vars(resolve_owner(shim.owner)).get(shim.attribute) is before[shim], shim


def test_benchmark_json_lists_the_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for key, metrics in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics]


def test_run_without_library_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rma_fill", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_tail_leaves_ten_samples_beyond():
    assert measure.tail(range(10)) is None
    summary = measure.tail(range(100))
    assert summary == {"value": 89.0, "percentile": 90.0, "samples": 100}
    assert sum(value > summary["value"] for value in range(100)) == measure.TAIL_BEYOND


def test_allocation_check_catches_shared_and_out_of_range_nodes():
    assert checks.allocation_errors({0: [1, 2], 1: [3]}, num_nodes=4, num_advertisers=2) == []
    errors = checks.allocation_errors({0: [1, 2], 1: [2, 9], 2: []}, num_nodes=4, num_advertisers=2)
    assert len(errors) == 3


def test_run_stops_its_workers_and_the_resource_tracker():
    script = """
import os, sys
sys.path[:0] = ["src", "."]
from multiprocessing import resource_tracker
from perfbench import run, workloads
from repro.runtime import Runtime

runtime = Runtime(workloads.POLICY)
runtime.pool.broadcast((), 2)
runtime.close()
tracker = resource_tracker._resource_tracker._pid
assert tracker is not None
run.stop_child_processes()
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    print("stopped")
"""
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert completed.stdout.strip() == "stopped", completed.stderr
