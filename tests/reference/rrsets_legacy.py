"""Reference (pre-vectorization) RR-set engine, kept for equivalence proofs.

This module preserves the original pure-Python implementations of the RR-set
generator, the SUBSIM generator, the tagged collection and the coverage state
exactly as they shipped in the seed tree.  They are the *specification* the
vectorized engine in :mod:`repro.rrsets.generator` / :mod:`~repro.rrsets.collection`
must match bit-for-bit under a fixed seed:

* ``tests/test_rr_engine_equivalence.py`` drives both engines from the same
  RNG seed and asserts identical RR-set membership, tags, revenue estimates
  and coverage marginals.
* ``benchmarks/bench_rr_engine.py`` times this module as the "before" side of
  the perf-regression harness.

It lives with the tests because nothing in the library imports it; do not
"optimize" it — its only value is being a faithful copy of the seed
semantics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.digraph import CSRDiGraph
from repro.utils.rng import RandomSource, as_rng


class LegacyRRSetGenerator:
    """The seed tree's reverse-BFS RR-set generator (per-element Python loops)."""

    def __init__(self, graph: CSRDiGraph, edge_probabilities: np.ndarray):
        probabilities = np.asarray(edge_probabilities, dtype=np.float64)
        if probabilities.shape != (graph.num_edges,):
            raise SamplingError("edge_probabilities must have one entry per edge")
        if probabilities.size and (probabilities.min() < 0 or probabilities.max() > 1):
            raise SamplingError("edge probabilities must lie in [0, 1]")
        self._graph = graph
        self._probabilities = probabilities
        self._edges_examined = 0

    @property
    def graph(self) -> CSRDiGraph:
        return self._graph

    @property
    def edge_probabilities(self) -> np.ndarray:
        return self._probabilities

    @property
    def edges_examined(self) -> int:
        return self._edges_examined

    def generate(self, rng: RandomSource = None, root: Optional[int] = None) -> np.ndarray:
        generator = as_rng(rng)
        graph = self._graph
        if graph.num_nodes == 0:
            raise SamplingError("cannot generate RR-sets on an empty graph")
        if root is None:
            root = int(generator.integers(0, graph.num_nodes))
        elif not 0 <= root < graph.num_nodes:
            raise SamplingError(f"root {root} out of range")
        visited = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            in_neighbors, in_edges = self._sample_incoming(node, generator)
            for neighbor, _ in zip(in_neighbors, in_edges):
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        return np.fromiter(visited, dtype=np.int64, count=len(visited))

    def generate_many(self, count: int, rng: RandomSource = None) -> List[np.ndarray]:
        if count < 0:
            raise SamplingError("count must be non-negative")
        generator = as_rng(rng)
        return [self.generate(generator) for _ in range(count)]

    # ------------------------------------------------------------------ #
    def _sample_incoming(self, node: int, rng: np.random.Generator):
        graph = self._graph
        offsets = graph.in_offsets
        start, end = int(offsets[node]), int(offsets[node + 1])
        degree = end - start
        if degree == 0:
            return [], []
        self._edges_examined += degree
        sources = graph.in_sources[start:end]
        edge_ids = graph.in_edge_id_array[start:end]
        draws = rng.random(degree)
        mask = draws < self._probabilities[edge_ids]
        return sources[mask].tolist(), edge_ids[mask].tolist()


class LegacySubsimRRGenerator(LegacyRRSetGenerator):
    """The seed tree's SUBSIM generator, including its per-skip Python loop.

    Note: it counts ``len(chosen_positions) + 1`` edges on the geometric path,
    i.e. it also counts the final overshooting skip — the accounting quirk the
    vectorized engine fixes.
    """

    def __init__(self, graph: CSRDiGraph, edge_probabilities: np.ndarray):
        super().__init__(graph, edge_probabilities)
        self._uniform_probability = self._detect_uniform_per_node()

    def _detect_uniform_per_node(self) -> np.ndarray:
        graph = self._graph
        uniform = np.full(graph.num_nodes, np.nan, dtype=np.float64)
        offsets = graph.in_offsets
        for node in range(graph.num_nodes):
            start, end = int(offsets[node]), int(offsets[node + 1])
            if start == end:
                continue
            edge_ids = graph.in_edge_id_array[start:end]
            probs = self._probabilities[edge_ids]
            if np.allclose(probs, probs[0]):
                uniform[node] = probs[0]
        return uniform

    def _sample_incoming(self, node: int, rng: np.random.Generator):
        graph = self._graph
        offsets = graph.in_offsets
        start, end = int(offsets[node]), int(offsets[node + 1])
        degree = end - start
        if degree == 0:
            return [], []
        common = self._uniform_probability[node]
        if np.isnan(common):
            return super()._sample_incoming(node, rng)
        if common <= 0.0:
            return [], []
        sources = graph.in_sources[start:end]
        edge_ids = graph.in_edge_id_array[start:end]
        if common >= 1.0:
            self._edges_examined += degree
            return sources.tolist(), edge_ids.tolist()
        chosen_positions: list[int] = []
        position = -1
        log_q = np.log1p(-common)
        while True:
            skip = int(np.floor(np.log(max(rng.random(), 1e-300)) / log_q))
            position += skip + 1
            if position >= degree:
                break
            chosen_positions.append(position)
        self._edges_examined += len(chosen_positions) + 1
        if not chosen_positions:
            return [], []
        picked = np.asarray(chosen_positions, dtype=np.int64)
        return sources[picked].tolist(), edge_ids[picked].tolist()


class LegacyRRCollection:
    """The seed tree's dict-of-lists tagged RR-set collection."""

    def __init__(self, num_nodes: int, num_advertisers: int):
        if num_nodes <= 0:
            raise SamplingError("num_nodes must be positive")
        if num_advertisers <= 0:
            raise SamplingError("num_advertisers must be positive")
        self._num_nodes = num_nodes
        self._num_advertisers = num_advertisers
        self._sets: List[np.ndarray] = []
        self._tags: List[int] = []
        self._membership: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._total_size = 0

    def add(self, rr_set: Sequence[int], advertiser: int) -> int:
        if not 0 <= advertiser < self._num_advertisers:
            raise SamplingError(f"advertiser tag {advertiser} out of range")
        members = np.unique(np.asarray(rr_set, dtype=np.int64))
        if members.size == 0:
            raise SamplingError("an RR-set always contains at least its root")
        if members.min() < 0 or members.max() >= self._num_nodes:
            raise SamplingError("RR-set contains invalid node ids")
        index = len(self._sets)
        self._sets.append(members)
        self._tags.append(int(advertiser))
        self._total_size += int(members.size)
        for node in members.tolist():
            self._membership[(int(advertiser), node)].append(index)
        return index

    def __len__(self) -> int:
        return len(self._sets)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_advertisers(self) -> int:
        return self._num_advertisers

    def rr_set(self, index: int) -> np.ndarray:
        return self._sets[index]

    def tag(self, index: int) -> int:
        return self._tags[index]

    def tags(self) -> np.ndarray:
        return np.asarray(self._tags, dtype=np.int64)

    def count_per_advertiser(self) -> np.ndarray:
        counts = np.zeros(self._num_advertisers, dtype=np.int64)
        for tag in self._tags:
            counts[tag] += 1
        return counts

    def sets_containing(self, advertiser: int, node: int) -> List[int]:
        return list(self._membership.get((advertiser, node), ()))

    def coverage_count(self, advertiser: int, nodes: Iterable[int]) -> int:
        covered: set[int] = set()
        for node in nodes:
            covered.update(self._membership.get((advertiser, int(node)), ()))
        return len(covered)


class LegacyCoverageState:
    """The seed tree's dict-backed incremental coverage bookkeeping."""

    def __init__(self, collection):
        self._collection = collection
        self._covered = np.zeros(len(collection), dtype=bool)
        self._marginal: Dict[Tuple[int, int], int] = defaultdict(int)
        for index in range(len(collection)):
            tag = collection.tag(index)
            for node in collection.rr_set(index).tolist():
                self._marginal[(tag, node)] += 1
        self._covered_count = 0
        self._covered_per_advertiser = np.zeros(collection.num_advertisers, dtype=np.int64)

    @property
    def covered_count(self) -> int:
        return self._covered_count

    def covered_count_for(self, advertiser: int) -> int:
        return int(self._covered_per_advertiser[advertiser])

    def marginal_coverage(self, advertiser: int, node: int) -> int:
        return self._marginal.get((advertiser, int(node)), 0)

    def is_covered(self, index: int) -> bool:
        return bool(self._covered[index])

    def add_seed(self, advertiser: int, node: int) -> int:
        newly_covered = 0
        for index in self._collection.sets_containing(advertiser, int(node)):
            if self._covered[index]:
                continue
            self._covered[index] = True
            newly_covered += 1
            tag = self._collection.tag(index)
            for member in self._collection.rr_set(index).tolist():
                key = (tag, member)
                current = self._marginal.get(key, 0)
                if current > 0:
                    self._marginal[key] = current - 1
        self._covered_count += newly_covered
        self._covered_per_advertiser[advertiser] += newly_covered
        return newly_covered
