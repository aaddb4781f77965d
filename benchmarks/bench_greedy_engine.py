"""Perf-regression harness for the lazy-greedy coverage engine.

Times the greedy-allocation consumers — CS-Greedy, CA-Greedy and
ThresholdGreedy + Fill — on a Weighted-Cascade synthetic graph with an
RR-set oracle, once per element engine (see :mod:`repro.core.batched_greedy`):

* ``coverage`` — the RR-set oracle itself, so the consumers insert their
  candidates with one vectorized gather through the ``(h, n)`` coverage
  marginal matrix and refresh each stale CELF candidate with one scalar
  lookup into it;
* ``callback`` — the same oracle behind ``CallbackView``
  (``tests/reference/oracle_view.py``), a plain ``RevenueOracle`` wrapper,
  so the consumers fall back to one ``oracle.marginal_revenue`` call per
  element (the engine Monte-Carlo and exact oracles get).

Run directly::

    PYTHONPATH=src python benchmarks/bench_greedy_engine.py          # full (20k nodes)
    PYTHONPATH=src python benchmarks/bench_greedy_engine.py --fast   # CI-sized

The full run writes ``BENCH_greedy_engine.json`` next to the repo root
(override with ``--output``) and fails if the aggregate ``greedy_coverage``
speedup (callback time / coverage time) drops below 3x; ``--fast`` applies a
smaller CI gate.  Both engines see the same floats and the heap runs the
same schedule, so every section also asserts the two engines returned
*identical allocations* (``tests/test_greedy_engine_equivalence.py`` pins
this per consumer).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RRSetOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core.threshold_greedy import threshold_greedy
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import SubsimRRGenerator
from repro.utils.resources import peak_rss_mib

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference.oracle_view import CallbackView  # noqa: E402

FULL = {"num_nodes": 20_000, "out_degree": 5, "rr_sets": 3000, "min_speedup": 3.0}
FAST = {"num_nodes": 2_000, "out_degree": 5, "rr_sets": 600, "min_speedup": 1.5}
NUM_ADVERTISERS = 5
GRAPH_SEED = 3
RR_SEED = 5
TAG_SEED = 1
COST_SEED = 7
#: per-advertiser demand fraction B_i = demand · n · cpe_i (Table 2 regime)
DEMAND = 0.15


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def build_workload(config: dict):
    """One RM instance + tagged RR collection shared by both engines."""
    n, out_degree = config["num_nodes"], config["out_degree"]
    graph = preferential_attachment_digraph(n, out_degree=out_degree, seed=GRAPH_SEED)
    model = WeightedCascadeModel(graph)
    advertisers = [
        Advertiser(budget=DEMAND * n * (1.0 + 0.25 * i), cpe=1.0 + 0.25 * i)
        for i in range(NUM_ADVERTISERS)
    ]
    costs = np.random.default_rng(COST_SEED).uniform(1.0, 8.0, size=(NUM_ADVERTISERS, n))
    instance = RMInstance(graph, model, advertisers, costs)
    probabilities = np.asarray(model.edge_probabilities(), dtype=np.float64)
    rr_sets = SubsimRRGenerator(graph, probabilities).generate_batch(
        config["rr_sets"], rng=RR_SEED
    )
    tags = np.random.default_rng(TAG_SEED).integers(
        0, NUM_ADVERTISERS, size=config["rr_sets"]
    )
    collection = RRCollection(n, NUM_ADVERTISERS)
    for rr_set, tag in zip(rr_sets, tags):
        collection.add(rr_set, int(tag))
    # Force the lazy CSR/index build so neither timed path pays for it.
    collection.membership_counts()
    return instance, collection


def run(config: dict) -> dict:
    instance, collection = build_workload(config)
    graph = instance.graph
    results: dict = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "sections": {},
    }

    def fresh_oracle():
        # A fresh oracle per timed run: the callback engine warms per-query
        # caches that must not leak into the next measurement.
        return RRSetOracle(collection, instance.gamma)

    def section(name, solve):
        callback_s, callback_out = _timed(lambda: solve(CallbackView(fresh_oracle())))
        coverage_s, coverage_out = _timed(lambda: solve(fresh_oracle()))
        for advertiser in range(NUM_ADVERTISERS):
            assert callback_out.seeds(advertiser) == coverage_out.seeds(advertiser), (
                f"{name}: engines disagree for advertiser {advertiser}"
            )
        results["sections"][name] = {
            "callback_s": round(callback_s, 6),
            "coverage_s": round(coverage_s, 6),
            "speedup": round(callback_s / coverage_s, 2) if coverage_s else None,
            "seeds_selected": sum(
                len(coverage_out.seeds(i)) for i in range(NUM_ADVERTISERS)
            ),
        }
        print(
            f"{name:<28} callback {callback_s:8.3f}s   coverage {coverage_s:8.3f}s   "
            f"{callback_s / coverage_s:6.2f}x"
        )

    section("cs_greedy", lambda oracle: cs_greedy(instance, oracle).allocation)
    section("ca_greedy", lambda oracle: ca_greedy(instance, oracle).allocation)
    # One mid-range threshold: exercises the gain-ranked main loop, the
    # single-depletion rescue path and the rate-ranked Fill pass.
    gamma = 0.5 * float(min(instance.cpe(i) for i in range(NUM_ADVERTISERS)))
    section("threshold_fill", lambda oracle: threshold_greedy(instance, oracle, gamma)[0])

    sections = results["sections"]
    callback_total = sum(entry["callback_s"] for entry in sections.values())
    coverage_total = sum(entry["coverage_s"] for entry in sections.values())
    results["greedy_coverage"] = {
        "sections": list(sections),
        "callback_s": round(callback_total, 6),
        "coverage_s": round(coverage_total, 6),
        "speedup": round(callback_total / coverage_total, 2),
    }
    print(
        f"{'greedy_coverage (total)':<28} callback {callback_total:8.3f}s   "
        f"coverage {coverage_total:8.3f}s   {callback_total / coverage_total:6.2f}x"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI-sized run, no JSON output by default"
    )
    parser.add_argument("--output", type=Path, default=None, help="where to write the JSON report")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if the greedy_coverage speedup is below this (default: per-mode)",
    )
    args = parser.parse_args()
    config = dict(FAST if args.fast else FULL)
    print(
        f"Greedy engine benchmark — {'fast' if args.fast else 'full'} mode: "
        f"{config['num_nodes']} nodes × out-degree {config['out_degree']}, "
        f"{config['rr_sets']} RR-sets, {NUM_ADVERTISERS} advertisers"
    )
    results = run(config)
    payload = {"config": config, "num_advertisers": NUM_ADVERTISERS, **results, "peak_rss_mib": peak_rss_mib()}
    output = args.output
    if output is None and not args.fast:
        output = Path(__file__).resolve().parent.parent / "BENCH_greedy_engine.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")
    gate = args.min_speedup if args.min_speedup is not None else config["min_speedup"]
    speedup = payload["greedy_coverage"]["speedup"]
    if speedup < gate:
        raise SystemExit(
            f"perf regression: greedy_coverage speedup {speedup}x < {gate}x"
        )


if __name__ == "__main__":
    main()
