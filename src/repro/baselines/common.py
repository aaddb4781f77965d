"""Shared machinery of the CA-Greedy / CS-Greedy oracle baselines.

Both baselines run the same budgeted allocation loop and package the same
:class:`SolverResult`; they differ only in how elements are ranked (marginal
gain vs. marginal rate), so the loop lives here once and each baseline
module is a thin wrapper naming its ranking.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_for
from repro.core.result import SolverResult
from repro.exceptions import SolverError
from repro.utils.lazy_heap import BatchedLazyGreedy


def greedy_result(
    instance: RMInstance,
    oracle: RevenueOracle,
    allocation: Allocation,
    closed: Set[int],
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
        depleted_budgets=len(closed),
        metadata={"closed_advertisers": len(closed)},
    )


def budgeted_allocation(
    instance: RMInstance,
    oracle: RevenueOracle,
    budgets: np.ndarray,
    candidates: Optional[Iterable[int]],
    rank_by_rate: bool,
) -> Tuple[Allocation, Set[int]]:
    """The CA/CS-Greedy allocation loop.

    ``rank_by_rate`` selects the CS-Greedy ranking (marginal rate) over the
    CA-Greedy one (marginal gain); every other decision — singleton
    feasibility, the assigned/closed filters, the budget accept test and the
    advertiser-closing rule — is shared.  The element engine comes from the
    oracle (:func:`repro.core.batched_greedy.engine_for`).
    """
    h = instance.num_advertisers
    n = instance.num_nodes
    engine = engine_for(instance, oracle)
    heap = BatchedLazyGreedy(engine.key_rate if rank_by_rate else engine.key_gain)
    keys = engine.feasible_element_keys(budgets, candidates)
    heap.push_array(keys, engine.rates(keys) if rank_by_rate else engine.gains(keys))

    allocation = Allocation(h)
    revenue = {i: 0.0 for i in range(h)}
    cost = {i: 0.0 for i in range(h)}
    closed: Set[int] = set()
    while len(heap) and len(closed) < h:
        key, _value = heap.pop_best()
        advertiser, node = divmod(key, n)
        if advertiser in closed or allocation.is_assigned(node):
            continue
        gain = engine.gain(advertiser, node)
        node_cost = instance.cost(advertiser, node)
        if cost[advertiser] + node_cost + revenue[advertiser] + gain <= budgets[advertiser]:
            allocation.assign(node, advertiser)
            engine.add_seed(advertiser, node)
            revenue[advertiser] += gain
            cost[advertiser] += node_cost
            heap.advance_round()
        else:
            # The greedy stops selecting for this advertiser as soon as its
            # top-ranked element no longer fits the budget.
            closed.add(advertiser)
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
