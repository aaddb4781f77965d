"""Shared machinery of the CA-Greedy / CS-Greedy oracle baselines.

Both baselines run the same budgeted allocation loop and package the same
:class:`SolverResult`; they differ only in how elements are ranked (marginal
gain vs. marginal rate), so the loop lives here once and each baseline
module is a thin wrapper naming its ranking.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_for
from repro.core.result import SolverResult
from repro.exceptions import SolverError


def greedy_result(
    instance: RMInstance,
    oracle: RevenueOracle,
    allocation: Allocation,
    closed: np.ndarray,
    algorithm: str,
) -> SolverResult:
    """Package a finished CA/CS-Greedy allocation as a :class:`SolverResult`."""
    total_revenue = oracle.total_revenue(allocation)
    return SolverResult(
        allocation=allocation,
        revenue=total_revenue,
        per_advertiser_revenue={
            advertiser: (oracle.revenue(advertiser, seeds) if seeds else 0.0)
            for advertiser, seeds in allocation.items()
        },
        seeding_cost=instance.total_seeding_cost(allocation),
        algorithm=algorithm,
        depleted_budgets=int(closed.sum()),
        metadata={"closed_advertisers": int(closed.sum())},
    )


def budgeted_allocation(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: np.ndarray,
    candidates: Optional[Iterable[int]],
    rank_by_rate: bool,
) -> Tuple[Allocation, np.ndarray]:
    """The CA/CS-Greedy allocation loop; returns the allocation and the closed mask.

    ``rank_by_rate`` selects the CS-Greedy ranking (marginal rate) over the
    CA-Greedy one (marginal gain); every other decision — singleton
    feasibility, the assigned/closed filters, the budget accept test and the
    advertiser-closing rule — is shared.  The element engine comes from the
    oracle (:func:`repro.core.batched_greedy.engine_for`).
    """
    h = instance.num_advertisers
    n = instance.num_nodes
    engine = engine_for(instance, oracle)
    assigned = np.zeros(n, dtype=bool)
    closed = np.zeros(h, dtype=bool)

    def discarded(keys: np.ndarray, _values: np.ndarray) -> np.ndarray:
        advertisers, nodes = np.divmod(keys, n)
        return closed[advertisers] | assigned[nodes]

    keys = engine.feasible_element_keys(budgets, candidates)
    heap = engine.selector(keys, by_rate=rank_by_rate, prune=discarded)

    allocation = Allocation(h)
    revenue = {i: 0.0 for i in range(h)}
    cost = {i: 0.0 for i in range(h)}
    while not closed.all() and (best := heap.pop_best()) is not None:
        advertiser, node = divmod(best[0], n)
        if closed[advertiser] or assigned[node]:
            continue
        gain = engine.gain(advertiser, node)
        node_cost = instance.cost(advertiser, node)
        if cost[advertiser] + node_cost + revenue[advertiser] + gain <= budgets[advertiser]:
            allocation.assign(node, advertiser)
            assigned[node] = True
            engine.add_seed(advertiser, node)
            revenue[advertiser] += gain
            cost[advertiser] += node_cost
            heap.advance_round()
        else:
            # The greedy stops selecting for this advertiser as soon as its
            # top-ranked element no longer fits the budget.
            closed[advertiser] = True
    return allocation, closed


def budgeted_greedy(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: Optional[np.ndarray],
    candidates: Optional[Iterable[int]],
    rank_by_rate: bool,
    algorithm: str,
) -> SolverResult:
    """Validate the inputs, run :func:`budgeted_allocation`, package the result."""
    if oracle.num_advertisers != instance.num_advertisers:
        raise SolverError("oracle and instance disagree on the number of advertisers")
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    allocation, closed = budgeted_allocation(
        instance, oracle, budget_array, candidates, rank_by_rate
    )
    return greedy_result(instance, oracle, allocation, closed, algorithm)
