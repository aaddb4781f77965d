"""Monte-Carlo-oracle allocation pins for every greedy consumer.

A :class:`MonteCarloOracle` draws every fresh query from one shared RNG, so
a greedy loop reproduces its allocation only if it issues the same oracle
queries in the same order.  These pins record, for a seeded MC oracle, the
allocation, its revenue and the number of distinct oracle queries of
CS-Greedy, CA-Greedy, Algorithm 1, ThresholdGreedy + Fill, ``gamma_max`` and
``rm_with_oracle`` (h = 1 and h >= 2).  Any change to the query schedule —
an extra speculative evaluation, a different insertion order — moves at
least one fingerprint.

The expected values live in ``tests/data/mc_oracle_golden.json``; rewrite
them (only after an intended behaviour change) with::

    PYTHONPATH=src python tests/test_mc_oracle_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core.greedy import greedy_single_advertiser
from repro.core.oracle_solver import rm_with_oracle
from repro.core.search import gamma_max
from repro.core.threshold_greedy import threshold_greedy
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.runtime import ExecutionPolicy

GOLDEN_PATH = Path(__file__).parent / "data" / "mc_oracle_golden.json"
SEED = ExecutionPolicy.seed()
NUM_NODES = 40


def _instance(h: int) -> RMInstance:
    graph = preferential_attachment_digraph(NUM_NODES, out_degree=2, seed=2)
    model = WeightedCascadeModel(graph)
    advertisers = [
        Advertiser(budget=14.0 + 4.0 * i, cpe=1.0 + 0.5 * (i % 2)) for i in range(h)
    ]
    costs = np.random.default_rng(3).uniform(0.5, 2.5, size=(h, NUM_NODES))
    return RMInstance(graph, model, advertisers, costs)


def _oracle(instance: RMInstance) -> MonteCarloOracle:
    return MonteCarloOracle(instance, num_simulations=24, seed=11, policy=SEED)


def _allocation(allocation) -> dict:
    return {str(a): sorted(int(n) for n in s) for a, s in allocation.items()}


def _result_fingerprint(result, oracle) -> dict:
    return {
        "revenue": result.revenue,
        "allocation": _allocation(result.allocation),
        "queries": oracle.query_count,
    }


def _cs_greedy():
    instance = _instance(3)
    oracle = _oracle(instance)
    return _result_fingerprint(cs_greedy(instance, oracle), oracle)


def _ca_greedy():
    instance = _instance(3)
    oracle = _oracle(instance)
    return _result_fingerprint(ca_greedy(instance, oracle), oracle)


def _greedy():
    instance = _instance(3)
    oracle = _oracle(instance)
    best, selected, stopple = greedy_single_advertiser(instance, oracle, 1)
    return {
        "best": sorted(best),
        "selected": sorted(selected),
        "stopple": sorted(stopple),
        "queries": oracle.query_count,
    }


def _threshold_greedy_fill(gamma: float):
    def run():
        instance = _instance(3)
        oracle = _oracle(instance)
        allocation, depleted = threshold_greedy(instance, oracle, gamma=gamma)
        return {
            "revenue": oracle.total_revenue(allocation),
            "allocation": _allocation(allocation),
            "depleted": depleted,
            "queries": oracle.query_count,
        }

    return run


def _gamma_max():
    instance = _instance(3)
    oracle = _oracle(instance)
    return {
        "gamma_max": gamma_max(instance, oracle),
        "subset": gamma_max(instance, oracle, candidates=range(0, NUM_NODES, 3)),
        "queries": oracle.query_count,
    }


def _rm_with_oracle(h: int):
    def run():
        instance = _instance(h)
        oracle = _oracle(instance)
        return _result_fingerprint(rm_with_oracle(instance, oracle), oracle)

    return run


CASES = {
    "CS-Greedy": _cs_greedy,
    "CA-Greedy": _ca_greedy,
    "Greedy": _greedy,
    # gamma=0.4 depletes every budget; gamma=14 depletes exactly one and so
    # runs the b = 1 rescue (Algorithm 1 on the unassigned nodes).
    "ThresholdGreedy+Fill[gamma=0.4]": _threshold_greedy_fill(0.4),
    "ThresholdGreedy+Fill[gamma=14]": _threshold_greedy_fill(14.0),
    "gamma_max": _gamma_max,
    "RM_with_Oracle[h=1]": _rm_with_oracle(1),
    "RM_with_Oracle[h=3]": _rm_with_oracle(3),
    "RM_with_Oracle[h=4]": _rm_with_oracle(4),
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(CASES))
def test_monte_carlo_allocation_matches_pin(name, golden):
    assert CASES[name]() == golden[name]


def record() -> None:
    payload = {name: case() for name, case in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" not in sys.argv[1:]:
        raise SystemExit("usage: test_mc_oracle_golden.py --record")
    record()
