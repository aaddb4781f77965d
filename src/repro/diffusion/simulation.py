"""Cascade simulation: single runs, Monte-Carlo spread, exact spread.

``monte_carlo_spread`` is the reference estimator used by the Monte-Carlo
revenue oracle and by tests that validate the RR-set estimators.  Its default
path draws randomness in exactly the same order as the seed implementation
(preserved verbatim in ``tests/reference/diffusion_legacy.py``), so
fixed-seed results are reproducible across releases; a policy with
``mc_engine="batched"`` routes the estimate through the level-synchronous
batched engine in :mod:`repro.diffusion.engine`, which is ~an order of
magnitude faster and statistically equivalent
(``tests/test_mc_engine_equivalence.py`` pins both claims).

``exact_spread`` enumerates live-edge worlds and anchors correctness tests of
everything else.  The enumeration is restricted to the edges reachable from
the seed set — edges no cascade from ``seeds`` can ever traverse contribute a
marginal factor of 1 and are skipped — so graphs with many edges but small
forward closures stay feasible (the seed semantics over *all* edges are kept
in ``legacy_exact_spread`` of ``tests/reference/diffusion_legacy.py``).
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Optional, Sequence, Set, TYPE_CHECKING

import numpy as np

from repro.exceptions import DiffusionError
from repro.graph.digraph import CSRDiGraph
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


def _as_seed_array(seeds: Iterable[int], num_nodes: int) -> np.ndarray:
    seed_array = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seed_array.size and (seed_array.min() < 0 or seed_array.max() >= num_nodes):
        raise DiffusionError("seed ids must be valid node ids")
    return seed_array


def simulate_cascade(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    rng: RandomSource = None,
) -> Set[int]:
    """Run one forward cascade from ``seeds`` and return the activated node set.

    The cascade follows the Independent Cascade dynamics: every newly
    activated node gets a single chance to activate each currently inactive
    out-neighbour, succeeding independently with the edge's probability.

    This is the seed-compatible path: the draw order (one uniform block per
    dequeued node, FIFO frontier) matches the reference in
    ``tests/reference/diffusion_legacy.py`` bit-for-bit under a fixed seed.
    """
    generator = as_rng(rng)
    probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    if probabilities.shape != (graph.num_edges,):
        raise DiffusionError("edge_probabilities must have one entry per edge")
    seed_array = _as_seed_array(seeds, graph.num_nodes)
    activated: Set[int] = set(int(s) for s in seed_array)
    frontier = deque(activated)
    while frontier:
        node = frontier.popleft()
        neighbor_ids = graph.out_neighbors(node)
        if neighbor_ids.size == 0:
            continue
        edge_ids = graph.out_edge_ids(node)
        draws = generator.random(neighbor_ids.size)
        successes = draws < probabilities[edge_ids]
        for neighbor in neighbor_ids[successes].tolist():
            if neighbor not in activated:
                activated.add(int(neighbor))
                frontier.append(int(neighbor))
    return activated


def monte_carlo_spread(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    num_simulations: int = 1000,
    rng: RandomSource = None,
    batch_size: Optional[int] = None,
    n_jobs: Optional[int] = None,
    policy: Optional["ExecutionPolicy"] = None,
    runtime: Optional["Runtime"] = None,
) -> float:
    """Estimate the expected spread ``σ(seeds)`` by Monte-Carlo simulation.

    Parameters
    ----------
    batch_size:
        Cascades per batch for the batched path (ignored otherwise);
        ``None`` picks a size that keeps the activation bitmap small.
    n_jobs:
        Shard the simulations across this many worker processes.  ``n_jobs>1``
        implies the batched engine (the sharded path is built on it);
        ``None``/1 leaves the selected path untouched.
    policy:
        :class:`repro.runtime.ExecutionPolicy` selecting the engine
        (``mc_engine="batched"`` routes the estimate through the batched
        level-synchronous engine in :mod:`repro.diffusion.engine`) and
        supplying defaults for ``batch_size`` / ``n_jobs``; explicit
        arguments win.  ``None`` keeps the sequential path, which reproduces
        the seed tree's RNG stream exactly; the batched path is
        statistically equivalent but draws in a different order.
    runtime:
        :class:`repro.runtime.Runtime` whose persistent pool the sharded
        path runs on.
    """
    from repro.parallel import resolve_n_jobs

    batched = False
    if policy is not None:
        batched = policy.mc_engine == "batched"
        batch_size = batch_size if batch_size is not None else policy.mc_batch_size
        n_jobs = n_jobs if n_jobs is not None else policy.n_jobs
    if batched or resolve_n_jobs(n_jobs) > 1:
        from repro.diffusion import engine

        return engine.monte_carlo_spread(
            graph,
            edge_probabilities,
            seeds,
            num_simulations=num_simulations,
            rng=rng,
            batch_size=batch_size,
            n_jobs=n_jobs,
            runtime=runtime,
        )
    if num_simulations <= 0:
        raise DiffusionError("num_simulations must be positive")
    seed_list = list(seeds)
    if not seed_list:
        return 0.0
    generator = as_rng(rng)
    total = 0
    for _ in range(num_simulations):
        total += len(simulate_cascade(graph, edge_probabilities, seed_list, generator))
    return total / num_simulations


def reachable_from(
    graph: CSRDiGraph, seeds: Iterable[int], live_edges: np.ndarray
) -> Set[int]:
    """Nodes reachable from ``seeds`` using only edges flagged in ``live_edges``."""
    live = np.asarray(live_edges, dtype=bool)
    if live.shape != (graph.num_edges,):
        raise DiffusionError("live_edges must have one entry per edge")
    seed_array = _as_seed_array(seeds, graph.num_nodes)
    visited: Set[int] = set(int(s) for s in seed_array)
    frontier = deque(visited)
    while frontier:
        node = frontier.popleft()
        neighbor_ids = graph.out_neighbors(node)
        if neighbor_ids.size == 0:
            continue
        edge_ids = graph.out_edge_ids(node)
        for neighbor, edge_id in zip(neighbor_ids.tolist(), edge_ids.tolist()):
            if live[edge_id] and neighbor not in visited:
                visited.add(int(neighbor))
                frontier.append(int(neighbor))
    return visited


def _reachable_edge_ids(graph: CSRDiGraph, seed_array: np.ndarray) -> np.ndarray:
    """Canonical ids of the edges whose source lies in the forward closure of
    ``seed_array`` (over *all* edges) — the only edges whose live/dead state
    can influence which nodes a cascade from the seeds reaches."""
    if graph.num_edges == 0 or seed_array.size == 0:
        return np.empty(0, dtype=np.int64)
    closure = reachable_from(
        graph, seed_array, np.ones(graph.num_edges, dtype=bool)
    )
    in_closure = np.zeros(graph.num_nodes, dtype=bool)
    in_closure[np.fromiter(closure, dtype=np.int64, count=len(closure))] = True
    return np.flatnonzero(in_closure[graph.sources]).astype(np.int64)


def exact_spread(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    max_edges: int = 20,
) -> float:
    """Exact expected spread by enumerating live-edge possible worlds.

    The sum runs over ``2^r`` worlds where ``r`` is the number of edges
    reachable from the seed set: an edge whose source no cascade from
    ``seeds`` can ever activate is never traversed, so marginalising over its
    state multiplies every term by ``p + (1-p) = 1``.  ``max_edges`` bounds
    ``r`` (the seed implementation bounded the total edge count; it is kept
    in ``tests/reference/diffusion_legacy.py`` and the two
    enumerations are pinned equal in tests).
    """
    probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    if probabilities.shape != (graph.num_edges,):
        raise DiffusionError("edge_probabilities must have one entry per edge")
    seed_list = list(seeds)
    if not seed_list:
        return 0.0
    seed_array = _as_seed_array(seed_list, graph.num_nodes)
    relevant = _reachable_edge_ids(graph, seed_array)
    if relevant.size > max_edges:
        raise DiffusionError(
            f"exact_spread is limited to {max_edges} reachable edges, "
            f"{relevant.size} of the graph's {graph.num_edges} edges are "
            "reachable from the seed set"
        )
    if relevant.size == 0:
        return float(seed_array.size)
    expected = 0.0
    live = np.zeros(graph.num_edges, dtype=bool)
    relevant_probs = probabilities[relevant]
    for world in product([False, True], repeat=int(relevant.size)):
        world_mask = np.array(world, dtype=bool)
        world_probability = float(
            np.prod(np.where(world_mask, relevant_probs, 1.0 - relevant_probs))
        )
        if world_probability == 0.0:
            continue
        live[relevant] = world_mask
        expected += world_probability * len(reachable_from(graph, seed_list, live))
    return expected


def singleton_spreads_monte_carlo(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    num_simulations: int = 200,
    rng: RandomSource = None,
    nodes: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    n_jobs: Optional[int] = None,
    policy: Optional["ExecutionPolicy"] = None,
    runtime: Optional["Runtime"] = None,
) -> np.ndarray:
    """Monte-Carlo estimates of ``σ({v})`` for every node ``v``.

    Used by the seed-incentive cost models, which price a node by its
    singleton influence spread (Section 5.1).  A ``policy`` with
    ``mc_engine="batched"`` routes all (node, simulation) cascades through
    the batched engine in one stream and supplies defaults for
    ``batch_size`` / ``n_jobs`` (explicit arguments win); ``None`` keeps the
    sequential path.  ``n_jobs>1`` additionally shards the node list across
    worker processes (and implies the batched engine).  ``runtime``
    supplies a persistent worker pool for the sharded path.
    """
    from repro.parallel import resolve_n_jobs

    batched = False
    if policy is not None:
        batched = policy.mc_engine == "batched"
        batch_size = batch_size if batch_size is not None else policy.mc_batch_size
        n_jobs = n_jobs if n_jobs is not None else policy.n_jobs
    if batched or resolve_n_jobs(n_jobs) > 1:
        from repro.diffusion import engine

        return engine.singleton_spreads_monte_carlo(
            graph,
            edge_probabilities,
            num_simulations=num_simulations,
            rng=rng,
            nodes=nodes,
            batch_size=batch_size,
            n_jobs=n_jobs,
            runtime=runtime,
        )
    generator = as_rng(rng)
    node_list = list(nodes) if nodes is not None else list(range(graph.num_nodes))
    spreads = np.zeros(len(node_list), dtype=np.float64)
    for index, node in enumerate(node_list):
        spreads[index] = monte_carlo_spread(
            graph, edge_probabilities, [node], num_simulations=num_simulations, rng=generator
        )
    return spreads
