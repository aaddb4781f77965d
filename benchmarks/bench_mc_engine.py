"""Perf-regression harness for the batched Monte-Carlo cascade engine.

Times the two Monte-Carlo estimators the library exposes — ``monte_carlo_spread``
over a fixed seed set and per-node ``singleton_spreads_monte_carlo`` — for the
batched level-synchronous engine (:mod:`repro.diffusion.engine`) against the
sequential reference preserved in ``tests/reference/diffusion_legacy.py``, on a
Weighted-Cascade synthetic graph.

Run directly::

    PYTHONPATH=src python benchmarks/bench_mc_engine.py              # full (20k nodes)
    PYTHONPATH=src python benchmarks/bench_mc_engine.py --fast       # CI-sized

The full run writes ``BENCH_mc_engine.json`` next to the repo root (override
with ``--output``) and fails if the ``monte_carlo_spread`` speedup drops
below 5x; ``--fast`` applies a smaller CI gate.  The engines draw randomness
in different orders, so the harness also checks the two spread estimates
agree within a Monte-Carlo confidence band (the statistical-equivalence
tests in ``tests/test_mc_engine_equivalence.py`` pin this properly).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.diffusion.engine import (
    monte_carlo_spread as batched_monte_carlo_spread,
    simulate_cascades_batch,
    singleton_spreads_monte_carlo as batched_singleton_spreads,
)
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.utils.resources import peak_rss_mib

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference.diffusion_legacy import (  # noqa: E402
    legacy_monte_carlo_spread,
    legacy_singleton_spreads_monte_carlo,
)

FULL = {
    "num_nodes": 20_000,
    "out_degree": 5,
    "spread_simulations": 1000,
    "seed_set_size": 50,
    "singleton_nodes": 100,
    "singleton_simulations": 20,
    "min_speedup": 5.0,
}
FAST = {
    "num_nodes": 2_000,
    "out_degree": 5,
    "spread_simulations": 300,
    "seed_set_size": 20,
    "singleton_nodes": 50,
    "singleton_simulations": 10,
    "min_speedup": 2.0,
}
GRAPH_SEED = 3
SEED_SET_SEED = 0
MC_SEED = 5
SANITY_SEED = 17
SANITY_CASCADES = 400


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run(config: dict) -> dict:
    n, out_degree = config["num_nodes"], config["out_degree"]
    graph = preferential_attachment_digraph(n, out_degree=out_degree, seed=GRAPH_SEED)
    probabilities = np.asarray(
        WeightedCascadeModel(graph).edge_probabilities(), dtype=np.float64
    )
    seeds = (
        np.random.default_rng(SEED_SET_SEED)
        .choice(n, size=config["seed_set_size"], replace=False)
        .tolist()
    )
    results: dict = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "sections": {},
    }

    def section(name, legacy_fn, batched_fn):
        legacy_s, legacy_out = _timed(legacy_fn)
        batched_s, batched_out = _timed(batched_fn)
        results["sections"][name] = {
            "legacy_s": round(legacy_s, 6),
            "batched_s": round(batched_s, 6),
            "speedup": round(legacy_s / batched_s, 2) if batched_s else None,
        }
        print(
            f"{name:<24} legacy {legacy_s:8.3f}s   batched {batched_s:8.3f}s   "
            f"{legacy_s / batched_s:6.2f}x"
        )
        return legacy_out, batched_out

    count = config["spread_simulations"]
    legacy_spread, batched_spread = section(
        "monte_carlo_spread",
        lambda: legacy_monte_carlo_spread(graph, probabilities, seeds, count, rng=MC_SEED),
        lambda: batched_monte_carlo_spread(graph, probabilities, seeds, count, rng=MC_SEED),
    )
    # Different draw orders: require agreement within a 6-sigma Monte-Carlo
    # band estimated from an independent batch of cascade sizes.
    sizes = (
        simulate_cascades_batch(graph, probabilities, seeds, SANITY_CASCADES, rng=SANITY_SEED)
        .sum(axis=1)
        .astype(np.float64)
    )
    tolerance = 6.0 * float(sizes.std()) * math.sqrt(2.0 / count)
    assert abs(legacy_spread - batched_spread) <= tolerance + 1e-9, (
        f"engines disagree on spread: legacy {legacy_spread:.2f} vs "
        f"batched {batched_spread:.2f} (tolerance {tolerance:.2f})"
    )
    results["spread_estimates"] = {
        "legacy": round(legacy_spread, 4),
        "batched": round(batched_spread, 4),
        "tolerance_6_sigma": round(tolerance, 4),
    }

    nodes = list(range(config["singleton_nodes"]))
    sims = config["singleton_simulations"]
    legacy_singletons, batched_singletons = section(
        "singleton_spreads",
        lambda: legacy_singleton_spreads_monte_carlo(
            graph, probabilities, num_simulations=sims, rng=MC_SEED, nodes=nodes
        ),
        lambda: batched_singleton_spreads(
            graph, probabilities, num_simulations=sims, rng=MC_SEED, nodes=nodes
        ),
    )
    # Loose per-harness sanity on the mean singleton spread; WC singleton
    # spreads are small, so an absolute band is the stable choice.
    assert abs(legacy_singletons.mean() - batched_singletons.mean()) <= max(
        1.0, 0.25 * legacy_singletons.mean()
    ), "engines disagree on mean singleton spread"

    sections = results["sections"]
    legacy_total = sum(entry["legacy_s"] for entry in sections.values())
    batched_total = sum(entry["batched_s"] for entry in sections.values())
    results["pipeline_mc_total"] = {
        "sections": list(sections),
        "legacy_s": round(legacy_total, 6),
        "batched_s": round(batched_total, 6),
        "speedup": round(legacy_total / batched_total, 2),
    }
    print(
        f"{'pipeline (spread+singleton)':<24} legacy {legacy_total:8.3f}s   "
        f"batched {batched_total:8.3f}s   {legacy_total / batched_total:6.2f}x"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="CI-sized run, no JSON output by default")
    parser.add_argument("--output", type=Path, default=None, help="where to write the JSON report")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if the monte_carlo_spread speedup is below this (default: per-mode)",
    )
    args = parser.parse_args()
    config = dict(FAST if args.fast else FULL)
    print(
        f"MC engine benchmark — {'fast' if args.fast else 'full'} mode: "
        f"{config['num_nodes']} nodes × out-degree {config['out_degree']}, "
        f"{config['spread_simulations']} cascades × {config['seed_set_size']} seeds, "
        f"{config['singleton_nodes']} singleton nodes × {config['singleton_simulations']} sims"
    )
    results = run(config)
    payload = {"config": config, **results, "peak_rss_mib": peak_rss_mib()}
    output = args.output
    if output is None and not args.fast:
        output = Path(__file__).resolve().parent.parent / "BENCH_mc_engine.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")
    gate = args.min_speedup if args.min_speedup is not None else config["min_speedup"]
    speedup = payload["sections"]["monte_carlo_spread"]["speedup"]
    if speedup < gate:
        raise SystemExit(
            f"perf regression: monte_carlo_spread speedup {speedup}x < {gate}x"
        )


if __name__ == "__main__":
    main()
