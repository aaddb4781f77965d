"""Output checks run on every allocation and store the benchmark produces.

Each function returns a list of human-readable failures (empty when the
output is correct), so a workload can count failed operations and the
command can exit non-zero without stopping at the first one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

import numpy as np

from repro.advertising.oracle import RRSetOracle
from repro.graph.deltas import MutableGraphView
from repro.rrsets.store import RRStore
from repro.runtime import Runtime

#: Budget overshoot the paper's RMA allows, ``(1 + rho) * B_i``; the same
#: default ``rho`` of :class:`repro.core.SamplingParameters`.
RHO = 0.1


def allocation_errors(
    seed_sets: Mapping[int, Iterable[int]], num_nodes: int, num_advertisers: int
) -> List[str]:
    """No node assigned twice, every node and advertiser id in range."""
    errors: List[str] = []
    owner: Dict[int, int] = {}
    for advertiser, seeds in seed_sets.items():
        if not 0 <= advertiser < num_advertisers:
            errors.append(f"advertiser {advertiser} out of range [0, {num_advertisers})")
        for node in seeds:
            if not 0 <= node < num_nodes:
                errors.append(f"node {node} of advertiser {advertiser} out of range")
            elif node in owner and owner[node] != advertiser:
                errors.append(f"node {node} assigned to {owner[node]} and {advertiser}")
            owner[node] = advertiser
    return errors


def budget_errors(
    instance, seed_sets: Mapping[int, Iterable[int]], evaluator: RRSetOracle
) -> List[str]:
    """Evaluated revenue plus seeding cost stays within ``(1 + RHO) * B_i``."""
    errors: List[str] = []
    budgets = instance.budgets()
    for advertiser, seeds in seed_sets.items():
        seeds = [int(node) for node in seeds]
        revenue = evaluator.revenue(advertiser, seeds) if seeds else 0.0
        spent = revenue + instance.cost_of_set(advertiser, seeds)
        limit = (1.0 + RHO) * float(budgets[advertiser])
        if spent > limit:
            errors.append(
                f"advertiser {advertiser} spends {spent:.1f} > (1+rho)*B = {limit:.1f}"
            )
    return errors


def evaluated_revenue(seed_sets: Mapping[int, Iterable[int]], evaluator: RRSetOracle) -> float:
    """Total revenue of an allocation under the shared independent evaluator."""
    return float(
        sum(
            evaluator.revenue(advertiser, [int(node) for node in seeds])
            for advertiser, seeds in seed_sets.items()
            if seeds
        )
    )


def store_errors(store: RRStore, runtime: Runtime) -> List[str]:
    """A delta-maintained store equals a fresh store drawn on its final graph."""
    fresh = RRStore(
        MutableGraphView(store.view.graph, store.view.advertiser_edge_probabilities),
        store.cpes,
        seed=store.seed,
        policy=store.policy,
        runtime=runtime,
    )
    fresh.generate(len(store.collection))
    maintained, regenerated = store.collection, fresh.collection
    same = (
        np.array_equal(maintained.member_array, regenerated.member_array)
        and np.array_equal(maintained.set_offsets, regenerated.set_offsets)
        and np.array_equal(maintained.tag_array, regenerated.tag_array)
        and np.array_equal(np.asarray(store.roots()), np.asarray(fresh.roots()))
    )
    return [] if same else ["maintained RR store differs from a fresh store on the final graph"]
