"""Algorithm 1 — ``Greedy(U, i)`` for a single advertiser.

The algorithm repeatedly picks the candidate with the largest *marginal rate*

    ζ_i(u | S_i) = π_i(u | S_i) / (c_i(u) + π_i(u | S_i))

and adds it to ``S_i`` while the submodular-knapsack constraint
``c_i(S_i) + π_i(S_i) ≤ B_i`` holds.  The first node that would overflow the
budget is stored separately as the "stopple node" ``D_i``, and the better of
``S_i`` and ``D_i`` is returned.  Theorem 3.1 proves this is a
1/3-approximation when ``U = V``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_for
from repro.exceptions import SolverError
from repro.utils.lazy_heap import BatchedLazyGreedy


def marginal_rate(marginal_gain: float, cost: float) -> float:
    """The marginal rate ``ζ = gain / (cost + gain)`` (Eq. 2 of the paper).

    Returns 0 for a non-positive gain; the denominator is always positive
    because node costs are strictly positive.
    """
    if marginal_gain <= 0.0:
        return 0.0
    return marginal_gain / (cost + marginal_gain)


def greedy_single_advertiser(
    instance: RMInstance,
    oracle: RevenueOracle,
    advertiser: int,
    candidates: Optional[Iterable[int]] = None,
    budget: Optional[float] = None,
) -> Tuple[Set[int], Set[int], Set[int]]:
    """Run ``Greedy(U, i)`` and return ``(S_i*, S_i, D_i)``.

    Parameters
    ----------
    instance:
        The RM instance (supplies costs and the default budget).
    oracle:
        Revenue oracle used to evaluate ``π_i``.  The element engine is
        picked from it (:func:`repro.core.batched_greedy.engine_for`):
        coverage gathers for an RR-set oracle, one oracle query per element
        otherwise.
    advertiser:
        The advertiser index ``i``.
    candidates:
        The candidate set ``U``; defaults to all nodes.
    budget:
        Budget override ``B_i`` (the sampling solver passes the relaxed
        ``(1 + ϱ/2)·B_i`` here).

    Returns
    -------
    tuple
        ``(best, selected, stopple)`` where ``best`` is the higher-revenue of
        ``selected`` (= ``S_i``) and ``stopple`` (= ``D_i``).
    """
    if not 0 <= advertiser < instance.num_advertisers:
        raise SolverError(f"advertiser {advertiser} out of range")
    budget_i = instance.budget(advertiser) if budget is None else float(budget)
    if budget_i <= 0:
        raise SolverError("budget must be positive")
    engine = engine_for(instance, oracle)
    candidate_pool = (
        set(int(node) for node in candidates)
        if candidates is not None
        else set(range(instance.num_nodes))
    )
    # Line 1: drop candidates that cannot fit the budget even on their own.
    # Singletons are evaluated, and the survivors inserted, in the iteration
    # order of the candidate *set*: the heap breaks exact value ties by
    # insertion order, and an RNG-backed oracle answers in query order.
    feasible = engine.singleton_feasible_nodes(advertiser, budget_i, list(candidate_pool))
    feasible_mask = np.zeros(instance.num_nodes, dtype=bool)
    feasible_mask[feasible] = True
    feasible_candidates = {node for node in candidate_pool if feasible_mask[node]}

    selected: Set[int] = set()
    stopple: Set[int] = set()
    # Revenue of the current S_i, updated incrementally to avoid re-evaluating.
    current_revenue = 0.0

    offset = engine.encode(0, advertiser)
    heap = BatchedLazyGreedy(engine.key_rate)
    keys = offset + np.fromiter(
        feasible_candidates, dtype=np.int64, count=len(feasible_candidates)
    )
    heap.push_array(keys, engine.rates(keys))

    while len(heap) and not stopple:
        key, _rate = heap.pop_best()
        node = key - offset
        gain = engine.gain(advertiser, node)
        cost_with_node = instance.cost_of_set(advertiser, selected | {node})
        revenue_with_node = current_revenue + gain
        if cost_with_node + revenue_with_node <= budget_i:
            selected.add(node)
            current_revenue = revenue_with_node
            engine.add_seed(advertiser, node)
            heap.advance_round()
        else:
            stopple.add(node)

    revenue_selected = oracle.revenue(advertiser, selected) if selected else 0.0
    revenue_stopple = oracle.revenue(advertiser, stopple) if stopple else 0.0
    best = selected if revenue_selected >= revenue_stopple else stopple
    return set(best), selected, stopple
