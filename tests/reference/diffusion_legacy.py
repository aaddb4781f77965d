"""Reference (pre-vectorization) Monte-Carlo cascade path, kept for equivalence proofs.

This module preserves the seed tree's per-cascade simulation functions exactly
as they shipped: one Python BFS per cascade, one block of ``degree`` uniform
draws per dequeued node, FIFO frontier order, and the full
``itertools.product`` possible-world enumeration of ``exact_spread``.  They
are the *specification* the batched engine in :mod:`repro.diffusion.engine`
must stay statistically equivalent to, and the draw-order contract the
default path in :mod:`repro.diffusion.simulation` must match bit-for-bit:

* ``tests/test_mc_engine_equivalence.py`` drives the default path and this
  module from the same RNG seed and asserts identical activated sets and
  spread estimates, then checks the batched engine against both with
  fixed-seed statistical tests (KS, mean-within-3σ).
* ``benchmarks/bench_mc_engine.py`` times this module as the "before" side of
  the perf-regression harness.

It lives with the tests because nothing in the library imports it; do not
"optimize" it — its only value is being a faithful copy of the seed
semantics.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Optional, Sequence, Set

import numpy as np

from repro.exceptions import DiffusionError
from repro.graph.digraph import CSRDiGraph
from repro.utils.rng import RandomSource, as_rng


def _as_seed_array(seeds: Iterable[int], num_nodes: int) -> np.ndarray:
    seed_array = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seed_array.size and (seed_array.min() < 0 or seed_array.max() >= num_nodes):
        raise DiffusionError("seed ids must be valid node ids")
    return seed_array


def legacy_simulate_cascade(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    rng: RandomSource = None,
) -> Set[int]:
    """The seed tree's single-cascade BFS (one uniform block per dequeued node)."""
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


def legacy_monte_carlo_spread(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    num_simulations: int = 1000,
    rng: RandomSource = None,
) -> float:
    """The seed tree's Monte-Carlo spread: ``num_simulations`` sequential cascades."""
    if num_simulations <= 0:
        raise DiffusionError("num_simulations must be positive")
    seed_list = list(seeds)
    if not seed_list:
        return 0.0
    generator = as_rng(rng)
    total = 0
    for _ in range(num_simulations):
        total += len(
            legacy_simulate_cascade(graph, edge_probabilities, seed_list, generator)
        )
    return total / num_simulations


def _legacy_reachable_from(
    graph: CSRDiGraph, seeds: Iterable[int], live_edges: np.ndarray
) -> Set[int]:
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


def legacy_exact_spread(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    max_edges: int = 20,
) -> float:
    """The seed tree's exact spread: ``itertools.product`` over *all* edges.

    The replacement in :mod:`repro.diffusion.simulation` enumerates only the
    edges reachable from the seed set; this copy pins the original semantics
    (including the ``max_edges`` gate on the *total* edge count).
    """
    probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    if probabilities.shape != (graph.num_edges,):
        raise DiffusionError("edge_probabilities must have one entry per edge")
    if graph.num_edges > max_edges:
        raise DiffusionError(
            f"exact_spread is limited to {max_edges} edges, graph has {graph.num_edges}"
        )
    seed_list = list(seeds)
    if not seed_list:
        return 0.0
    expected = 0.0
    num_edges = graph.num_edges
    for world in product([False, True], repeat=num_edges):
        live = np.array(world, dtype=bool)
        world_probability = 1.0
        for edge_id in range(num_edges):
            p = probabilities[edge_id]
            world_probability *= p if live[edge_id] else (1.0 - p)
        if world_probability == 0.0:
            continue
        expected += world_probability * len(
            _legacy_reachable_from(graph, seed_list, live)
        )
    return expected


def legacy_singleton_spreads_monte_carlo(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    num_simulations: int = 200,
    rng: RandomSource = None,
    nodes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The seed tree's per-node singleton spreads: one MC loop per node."""
    generator = as_rng(rng)
    node_list = list(nodes) if nodes is not None else list(range(graph.num_nodes))
    spreads = np.zeros(len(node_list), dtype=np.float64)
    for index, node in enumerate(node_list):
        spreads[index] = legacy_monte_carlo_spread(
            graph,
            edge_probabilities,
            [node],
            num_simulations=num_simulations,
            rng=generator,
        )
    return spreads
