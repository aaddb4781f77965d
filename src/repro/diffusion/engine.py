"""Batched, CSR-vectorized forward-cascade engine.

The reference Monte-Carlo estimator (preserved in
``tests/reference/diffusion_legacy.py``) runs one Python BFS per cascade and
draws one block of uniforms per dequeued node.  This engine instead advances **all live
cascades of a batch one BFS level at a time** on flat numpy arrays, so the
per-level Python overhead is constant no matter how many cascades are in
flight.

Frontier-batching layout
------------------------
A batch of ``B`` cascades over an ``n``-node graph keeps three flat
structures:

* ``active`` — a ``(B, n)`` boolean activation bitmap, addressed through its
  raveled ``B·n`` view so membership tests and activation writes are single
  fancy-index operations on ``cascade·n + node`` keys;
* the frontier as two parallel int64 arrays ``(frontier_cascades,
  frontier_nodes)`` holding every (cascade, node) pair activated in the
  previous level, across *all* cascades at once;
* the edge probabilities gathered **once** into out-CSR order
  (``probabilities[graph.out_edge_id_array]``), so per-level probability
  lookups are contiguous gathers with no per-edge indirection.

One BFS level is then five vectorised steps:

1. ``np.repeat`` the frontier by its out-degrees to expand every frontier
   entry into its out-edge block (a single CSR gather builds the flat edge
   positions for the whole level);
2. one bulk ``rng.random(total_edges)`` Bernoulli draw against the
   pre-gathered probabilities;
3. gather the successful edges' targets and their owning cascades;
4. dedupe attempted activations *within* the level via ``np.unique`` on the
   ``cascade·n + node`` keys (two frontier nodes of the same cascade may hit
   the same target in one level);
5. drop already-active keys with one mask against the raveled bitmap, flip
   the fresh ones, and split the keys back into the next level's frontier.

Cascades that die out simply stop contributing frontier entries; the loop
ends when the combined frontier is empty.  Per-cascade activation counts are
accumulated with ``np.bincount`` per level, so estimators never materialise
more than one batch bitmap at a time (``batch_size`` bounds it).

The engine draws randomness in a different order than the sequential
reference, so results are **statistically equivalent, not bit-identical**;
``tests/test_mc_engine_equivalence.py`` pins the equivalence with fixed-seed
KS and mean-within-3σ tests against the legacy path, ``exact_spread`` and the
RR-set estimator.  Callers that need the seed tree's exact stream keep the
default (non-batched) path in :mod:`repro.diffusion.simulation` — see the
RNG seed-stream-compatibility policy in ``docs/architecture.md``, which
also explains how this engine's raveled ``B·n`` bitmap relates to the CSR
gather order of :mod:`repro.rrsets.generator` and the ``(h, n)`` marginal
matrix of :mod:`repro.rrsets.collection`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import DiffusionError
from repro.graph.digraph import CSRDiGraph
# simulation.py imports this module lazily inside its dispatch functions, so
# sharing its validation helper introduces no import cycle.
from repro.diffusion.simulation import _as_seed_array
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import Runtime

#: Soft cap on the number of activation-bitmap cells (``batch · num_nodes``)
#: a single batch may allocate when the caller does not pass ``batch_size``;
#: 32M bool cells ≈ 32 MB, comfortably cache/RAM friendly.
_DEFAULT_BITMAP_CELLS = 32 * 1024 * 1024


def _validated_probabilities(
    graph: CSRDiGraph, edge_probabilities: np.ndarray
) -> np.ndarray:
    probabilities = np.asarray(edge_probabilities, dtype=np.float64)
    if probabilities.shape != (graph.num_edges,):
        raise DiffusionError("edge_probabilities must have one entry per edge")
    return probabilities


def default_batch_size(num_nodes: int, num_cascades: int) -> int:
    """Batch size keeping the activation bitmap within the soft memory cap."""
    if num_cascades <= 0:
        return 1
    per_cascade = max(1, num_nodes)
    return max(1, min(num_cascades, _DEFAULT_BITMAP_CELLS // per_cascade))


def _run_level_synchronous(
    graph: CSRDiGraph,
    out_probs: np.ndarray,
    active_flat: np.ndarray,
    frontier_cascades: np.ndarray,
    frontier_nodes: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance a batch to absorption; returns per-cascade activation counts.

    ``active_flat`` is the raveled ``(batch, n)`` bitmap with the seeds
    already flipped; ``frontier_*`` hold the seed (cascade, node) pairs.
    """
    n = graph.num_nodes
    out_offsets = graph.out_offsets
    out_targets = graph.out_target_array
    counts = np.bincount(frontier_cascades, minlength=batch).astype(np.int64)
    while frontier_nodes.size:
        starts = out_offsets[frontier_nodes]
        degrees = out_offsets[frontier_nodes + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            break
        # CSR expansion of the whole frontier: block starts repeated per edge
        # plus the within-block ramp gives every out-edge position flat.
        block_ends = np.cumsum(degrees)
        origin = np.repeat(np.arange(frontier_nodes.size, dtype=np.int64), degrees)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            block_ends - degrees, degrees
        )
        edge_positions = starts[origin] + within
        successes = rng.random(total) < out_probs[edge_positions]
        if not successes.any():
            break
        keys = (
            frontier_cascades[origin[successes]] * n
            + out_targets[edge_positions[successes]]
        )
        keys = np.unique(keys)
        fresh = keys[~active_flat[keys]]
        if fresh.size == 0:
            break
        active_flat[fresh] = True
        frontier_cascades = fresh // n
        frontier_nodes = fresh - frontier_cascades * n
        counts += np.bincount(frontier_cascades, minlength=batch)
    return counts


def simulate_cascades_batch(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    num_cascades: int = 1,
    rng: RandomSource = None,
) -> np.ndarray:
    """Run ``num_cascades`` independent cascades from ``seeds`` at once.

    Returns the ``(num_cascades, num_nodes)`` boolean activation bitmap:
    row ``b`` flags the nodes activated in cascade ``b``.  All cascades share
    the same seed set; their Bernoulli draws are independent.
    """
    if num_cascades <= 0:
        raise DiffusionError("num_cascades must be positive")
    probabilities = _validated_probabilities(graph, edge_probabilities)
    generator = as_rng(rng)
    n = graph.num_nodes
    seed_array = _as_seed_array(seeds, n)
    active = np.zeros((num_cascades, n), dtype=bool)
    if seed_array.size == 0:
        return active
    active[:, seed_array] = True
    out_probs = (
        probabilities[graph.out_edge_id_array] if probabilities.size else probabilities
    )
    frontier_cascades = np.repeat(
        np.arange(num_cascades, dtype=np.int64), seed_array.size
    )
    frontier_nodes = np.tile(seed_array, num_cascades)
    _run_level_synchronous(
        graph,
        out_probs,
        active.reshape(-1),
        frontier_cascades,
        frontier_nodes,
        num_cascades,
        generator,
    )
    return active


def monte_carlo_activation_total(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    num_simulations: int,
    rng: RandomSource = None,
    batch_size: Optional[int] = None,
) -> int:
    """Integer total of activated nodes over ``num_simulations`` cascades.

    The batched engine's inner loop, exposed separately so the sharded
    parallel path (:mod:`repro.parallel.mc`) can merge worker results as
    exact integer sums — the merge is then order-independent and a fixed
    ``(seed, n_jobs)`` run is bit-reproducible.
    """
    if num_simulations <= 0:
        raise DiffusionError("num_simulations must be positive")
    probabilities = _validated_probabilities(graph, edge_probabilities)
    n = graph.num_nodes
    seed_array = _as_seed_array(seeds, n)
    if seed_array.size == 0:
        return 0
    generator = as_rng(rng)
    if batch_size is None:
        batch_size = default_batch_size(n, num_simulations)
    if batch_size <= 0:
        raise DiffusionError("batch_size must be positive")
    out_probs = (
        probabilities[graph.out_edge_id_array] if probabilities.size else probabilities
    )
    total = 0
    remaining = num_simulations
    while remaining > 0:
        batch = min(batch_size, remaining)
        active = np.zeros((batch, n), dtype=bool)
        active[:, seed_array] = True
        frontier_cascades = np.repeat(
            np.arange(batch, dtype=np.int64), seed_array.size
        )
        frontier_nodes = np.tile(seed_array, batch)
        counts = _run_level_synchronous(
            graph,
            out_probs,
            active.reshape(-1),
            frontier_cascades,
            frontier_nodes,
            batch,
            generator,
        )
        total += int(counts.sum())
        remaining -= batch
    return total


def monte_carlo_spread(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    seeds: Iterable[int],
    num_simulations: int = 1000,
    rng: RandomSource = None,
    batch_size: Optional[int] = None,
    n_jobs: Optional[int] = None,
    runtime: Optional["Runtime"] = None,
) -> float:
    """Batched estimate of the expected spread ``σ(seeds)``.

    Statistically equivalent to the sequential reference
    (``legacy_monte_carlo_spread`` in ``tests/reference/diffusion_legacy.py``)
    but runs the cascades in level-synchronous batches of ``batch_size``
    (default: sized by :func:`default_batch_size`).

    ``n_jobs>1`` shards the simulation count across worker processes
    (:mod:`repro.parallel.mc`): each worker runs this engine on its own
    ``SeedSequence.spawn()`` substream and the integer activation totals are
    summed in worker-index order — fixed ``(seed, n_jobs)`` runs are
    bit-reproducible and ``n_jobs=1`` is bit-identical to the serial engine.
    ``runtime`` (or the ambient one) supplies a persistent worker pool.
    """
    from repro.runtime import acquire_executor

    executor = acquire_executor(n_jobs, runtime)
    if executor.n_jobs > 1 and num_simulations > 1:
        from repro.parallel.mc import sharded_spread

        probabilities = _validated_probabilities(graph, edge_probabilities)
        seed_array = _as_seed_array(seeds, graph.num_nodes)
        if seed_array.size == 0:
            return 0.0
        return sharded_spread(
            graph, probabilities, seed_array, num_simulations, rng, executor, batch_size
        )
    total = monte_carlo_activation_total(
        graph, edge_probabilities, seeds, num_simulations, rng=rng, batch_size=batch_size
    )
    return total / num_simulations


def _validated_node_array(graph: CSRDiGraph, nodes: Optional[Sequence[int]]) -> np.ndarray:
    n = graph.num_nodes
    if nodes is None:
        return np.arange(n, dtype=np.int64)
    node_array = np.asarray(list(nodes), dtype=np.int64)
    if node_array.size and (node_array.min() < 0 or node_array.max() >= n):
        raise DiffusionError("seed ids must be valid node ids")
    return node_array


def singleton_activation_totals(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    node_array: np.ndarray,
    num_simulations: int,
    rng: RandomSource = None,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Per-node integer activation totals over ``num_simulations`` cascades.

    The singleton estimator's inner loop on a pre-validated node array,
    exposed for the sharded parallel path (each worker handles a round-robin
    node stripe and the parent scatters the exact integer totals back into
    node order).
    """
    if num_simulations <= 0:
        raise DiffusionError("num_simulations must be positive")
    probabilities = _validated_probabilities(graph, edge_probabilities)
    n = graph.num_nodes
    node_array = np.asarray(node_array, dtype=np.int64)
    if node_array.size == 0:
        return np.zeros(0, dtype=np.int64)
    generator = as_rng(rng)
    total_cascades = node_array.size * num_simulations
    if batch_size is None:
        batch_size = default_batch_size(n, total_cascades)
    if batch_size <= 0:
        raise DiffusionError("batch_size must be positive")
    out_probs = (
        probabilities[graph.out_edge_id_array] if probabilities.size else probabilities
    )
    # Cascade b of the flat stream seeds node_array[b // num_simulations].
    totals = np.zeros(node_array.size, dtype=np.int64)
    position = 0
    while position < total_cascades:
        batch = min(batch_size, total_cascades - position)
        cascade_ids = np.arange(position, position + batch, dtype=np.int64)
        seed_nodes = node_array[cascade_ids // num_simulations]
        active = np.zeros((batch, n), dtype=bool)
        local = np.arange(batch, dtype=np.int64)
        active[local, seed_nodes] = True
        counts = _run_level_synchronous(
            graph,
            out_probs,
            active.reshape(-1),
            local,
            seed_nodes,
            batch,
            generator,
        )
        np.add.at(totals, cascade_ids // num_simulations, counts)
        position += batch
    return totals


def singleton_spreads_monte_carlo(
    graph: CSRDiGraph,
    edge_probabilities: np.ndarray,
    num_simulations: int = 200,
    rng: RandomSource = None,
    nodes: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    n_jobs: Optional[int] = None,
    runtime: Optional["Runtime"] = None,
) -> np.ndarray:
    """Batched Monte-Carlo estimates of ``σ({v})`` for the requested nodes.

    The (node, simulation) grid is flattened into one stream of single-seed
    cascades and processed in batches, so different nodes' simulations share
    the same level-synchronous sweeps.

    ``n_jobs>1`` shards the node list into round-robin stripes
    (``nodes[k::n_jobs]``, balancing degree-correlated per-node cost) across
    worker processes (:mod:`repro.parallel.mc`), each estimating its stripe
    on its own ``SeedSequence.spawn()`` substream; the parent scatters the
    per-node totals back into node order by stripe index, so fixed
    ``(seed, n_jobs)`` runs are bit-reproducible and ``n_jobs=1`` is
    bit-identical to the serial engine.
    """
    probabilities = _validated_probabilities(graph, edge_probabilities)
    node_array = _validated_node_array(graph, nodes)
    if node_array.size == 0:
        return np.zeros(0, dtype=np.float64)
    from repro.runtime import acquire_executor

    executor = acquire_executor(n_jobs, runtime)
    if executor.n_jobs > 1 and node_array.size > 1:
        from repro.parallel.mc import sharded_singleton_spreads

        return sharded_singleton_spreads(
            graph, probabilities, node_array, num_simulations, rng, executor, batch_size
        )
    totals = singleton_activation_totals(
        graph, probabilities, node_array, num_simulations, rng=rng, batch_size=batch_size
    )
    return totals.astype(np.float64) / num_simulations
