"""Algorithms 2 and 3 — ``ThresholdGreedy(γ)`` and ``Fill(S⃗)``.

``ThresholdGreedy`` selects elements ``(u, i)`` in decreasing order of
*marginal gain* (like CA-Greedy) but only accepts an element whose *marginal
rate* clears the threshold ``γ / B_i``.  The first budget-overflowing node of
each advertiser is parked as the stopple node ``D_i``.  If exactly one budget
was depleted, Algorithm 1 is re-run on the unassigned nodes for that
advertiser (the ``A_i`` set of the paper's analysis).  ``Fill`` then spends
whatever budget is left, greedily by marginal rate.

Theorem 3.2 relates the revenue of the returned allocation to ``OPT`` through
the number ``b`` of depleted budgets, which is what the binary search of
Algorithm 4 exploits.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle
from repro.core.batched_greedy import engine_for
from repro.core.greedy import greedy_single_advertiser, marginal_rate
from repro.exceptions import SolverError


class _GreedyState:
    """Bookkeeping of ThresholdGreedy's main loop.

    Tracks, per advertiser, the selected set ``S_i``, its revenue and its
    seeding cost, plus two masks both the loop's checks and the selector's
    prune read: which nodes are taken (selected or parked as a stopple node
    by any advertiser) and which budgets are depleted (``D_i`` non-empty).
    """

    def __init__(self, instance: RMInstance, budgets: np.ndarray):
        self.instance = instance
        self.budgets = budgets
        h = instance.num_advertisers
        self.selected: Dict[int, Set[int]] = {i: set() for i in range(h)}
        self.stopple: Dict[int, Set[int]] = {i: set() for i in range(h)}
        self.revenue: Dict[int, float] = {i: 0.0 for i in range(h)}
        self.cost: Dict[int, float] = {i: 0.0 for i in range(h)}
        self.assigned = np.zeros(instance.num_nodes, dtype=bool)
        self.depleted = np.zeros(h, dtype=bool)

    def try_add(self, node: int, advertiser: int, gain: float) -> str:
        """Attempt to add ``(node, advertiser)`` whose marginal revenue is ``gain``.

        Returns 'selected' or 'stopple'.
        """
        node_cost = self.instance.cost(advertiser, node)
        new_cost = self.cost[advertiser] + node_cost
        new_revenue = self.revenue[advertiser] + gain
        self.assigned[node] = True
        if new_cost + new_revenue <= self.budgets[advertiser]:
            self.selected[advertiser].add(node)
            self.revenue[advertiser] = new_revenue
            self.cost[advertiser] = new_cost
            return "selected"
        self.stopple[advertiser].add(node)
        self.depleted[advertiser] = True
        return "stopple"


def threshold_greedy(
    instance: RMInstance,
    oracle: RevenueOracle,
    gamma: float,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
    run_fill: bool = True,
) -> Tuple[Allocation, int]:
    """Algorithm 2 — returns ``(allocation S⃗*, b)``.

    Parameters
    ----------
    gamma:
        The marginal-rate threshold γ ≥ 0.
    budgets:
        Optional per-advertiser budget overrides (the sampling solver passes
        the relaxed budgets here); defaults to the instance budgets.
    candidates:
        Candidate node pool; defaults to all nodes.
    run_fill:
        Whether to run the final ``Fill`` pass (Line 12).  Disabled only by
        ablation benchmarks.
    """
    if gamma < 0:
        raise SolverError("gamma must be non-negative")
    h = instance.num_advertisers
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    if budget_array.shape != (h,):
        raise SolverError(f"budgets must have length {h}")
    if np.any(budget_array <= 0):
        raise SolverError("budgets must be positive")
    if candidates is not None:
        # Read three times below (feasibility, the b = 1 rescue, Fill), so a
        # one-shot iterator is materialised once.
        candidates = list(candidates)

    state = _GreedyState(instance, budget_array)
    engine = engine_for(instance, oracle)
    n = instance.num_nodes
    thresholds = gamma / budget_array

    def discarded(keys: np.ndarray, gains: np.ndarray) -> np.ndarray:
        # Filters 1 and 2 below, for every element at once; each is
        # permanent (rates only fall, masks only fill).
        advertisers, nodes = np.divmod(keys, n)
        return (
            state.depleted[advertisers]
            | state.assigned[nodes]
            | (engine.to_rates(gains, keys) < thresholds[advertisers])
        )

    keys = engine.feasible_element_keys(budget_array, candidates)
    heap = engine.selector(keys, by_rate=False, prune=discarded)

    # Main loop (Lines 3-8): pop by max marginal gain, apply the three filters.
    while not state.depleted.all() and (best := heap.pop_best()) is not None:
        advertiser, node = divmod(best[0], n)
        # Filter 1: threshold on the marginal rate w.r.t. S_i ∪ D_i, and skip
        # advertisers whose budget is already depleted (D_i non-empty).
        if state.depleted[advertiser]:
            continue
        gain = engine.gain(advertiser, node)
        rate = marginal_rate(gain, instance.cost(advertiser, node))
        if rate < thresholds[advertiser]:
            continue
        # Filter 2: the node must not be assigned to any advertiser yet.
        if state.assigned[node]:
            continue
        if state.try_add(node, advertiser, gain) == "selected":
            engine.add_seed(advertiser, node)
            heap.advance_round()

    # Line 9-10: when exactly one budget is depleted, re-run Greedy for it on
    # the still-unassigned nodes; its result backs the b = 1 case of Thm 3.2.
    rescue: Dict[int, Set[int]] = {i: set() for i in range(h)}
    depleted = np.flatnonzero(state.depleted)
    if depleted.size == 1:
        advertiser = int(depleted[0])
        selected_anywhere = set().union(*state.selected.values())
        unassigned = [
            node
            for node in (candidates if candidates is not None else range(instance.num_nodes))
            if int(node) not in selected_anywhere
        ]
        best, _selected, _stopple = greedy_single_advertiser(
            instance,
            oracle,
            advertiser,
            candidates=unassigned,
            budget=float(budget_array[advertiser]),
        )
        rescue[advertiser] = best

    # Line 11: per advertiser keep the best of S_j, D_j, A_j.
    chosen: Dict[int, Set[int]] = {}
    for advertiser in range(h):
        options = [state.selected[advertiser], state.stopple[advertiser], rescue[advertiser]]
        revenues = [
            oracle.revenue(advertiser, option) if option else 0.0 for option in options
        ]
        chosen[advertiser] = set(options[int(np.argmax(revenues))])

    # The paper's Fill expects a partition; resolve cross-advertiser duplicates
    # (possible when a stopple node of one advertiser was selected by another)
    # by keeping the copy with the larger marginal contribution.
    _deduplicate(chosen, oracle)

    allocation = Allocation(h)
    for advertiser, nodes in chosen.items():
        for node in nodes:
            allocation.assign(node, advertiser)

    if run_fill:
        allocation = fill(
            instance,
            oracle,
            allocation,
            budgets=budget_array,
            candidates=candidates,
        )
    return allocation, int(depleted.size)


def _deduplicate(chosen: Dict[int, Set[int]], oracle: RevenueOracle) -> None:
    """Ensure no node appears in two advertisers' chosen sets (keep best owner)."""
    owners: Dict[int, int] = {}
    for advertiser, nodes in chosen.items():
        for node in list(nodes):
            previous = owners.get(node)
            if previous is None:
                owners[node] = advertiser
                continue
            keep_gain = oracle.marginal_revenue(previous, node, chosen[previous] - {node})
            new_gain = oracle.marginal_revenue(advertiser, node, chosen[advertiser] - {node})
            if new_gain > keep_gain:
                chosen[previous].discard(node)
                owners[node] = advertiser
            else:
                chosen[advertiser].discard(node)


def fill(
    instance: RMInstance,
    oracle: RevenueOracle,
    allocation: Allocation,
    budgets: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
) -> Allocation:
    """Algorithm 3 — greedily spend leftover budget by maximum marginal rate.

    Returns a new allocation extending ``allocation`` (the input is copied,
    not mutated).  The element engine's seed state is replayed to the
    incoming allocation first, so element gains are marginals w.r.t. the
    seeds Fill starts from.
    """
    h = instance.num_advertisers
    budget_array = (
        np.asarray(budgets, dtype=np.float64) if budgets is not None else instance.budgets()
    )
    if budget_array.shape != (h,):
        raise SolverError(f"budgets must have length {h}")

    result = allocation.copy()
    engine = engine_for(instance, oracle)
    n = instance.num_nodes
    cost_flat = instance.cost_matrix().ravel()
    assigned = np.zeros(n, dtype=bool)
    revenue = np.zeros(h)
    cost = np.zeros(h)
    for advertiser, seeds in result.items():
        revenue[advertiser] = oracle.revenue(advertiser, seeds) if seeds else 0.0
        cost[advertiser] = instance.cost_of_set(advertiser, seeds)
        for node in seeds:
            assigned[node] = True
            engine.add_seed(advertiser, int(node))

    def discarded(keys: np.ndarray, _rates: np.ndarray) -> np.ndarray:
        # The loop's skip tests for every element at once, in its own float
        # expression; both are permanent (taken nodes stay taken, and
        # cost + revenue only grows as seeds are added).
        advertisers, nodes = np.divmod(keys, n)
        spend = cost[advertisers] + cost_flat[keys] + revenue[advertisers] + engine.gains(keys)
        return assigned[nodes] | ~(spend <= budget_array[advertisers])

    keys = engine.feasible_element_keys(budget_array, candidates)
    heap = engine.selector(keys, by_rate=True, prune=discarded)

    while (best := heap.pop_best()) is not None:
        advertiser, node = divmod(best[0], n)
        if assigned[node]:
            continue
        gain = engine.gain(advertiser, node)
        node_cost = instance.cost(advertiser, node)
        if cost[advertiser] + node_cost + revenue[advertiser] + gain <= budget_array[advertiser]:
            result.assign(node, advertiser)
            assigned[node] = True
            engine.add_seed(advertiser, node)
            revenue[advertiser] += gain
            cost[advertiser] += node_cost
            heap.advance_round()
    return result
