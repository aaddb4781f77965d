"""Advertiser-aware RR-set samplers.

The key sampling idea of Section 4.2: instead of keeping ``h`` equally sized
per-advertiser pools, draw the advertiser of every RR-set at random with
probability proportional to its cpe, then generate the RR-set under that
advertiser's edge probabilities.  The resulting indicator variables are
identically distributed, which lets the solver use sharper concentration
bounds (Lemma 4.1).

:class:`PerAdvertiserRRSampler` implements the naive equal-pool strategy the
paper argues against; it backs both the TI-CARM/TI-CSRM baselines and the
sampling-strategy ablation benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type, TYPE_CHECKING

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.digraph import CSRDiGraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


class UniformRRSampler:
    """Uniform sampling of RR-sets across advertisers (Section 4.2).

    Parameters
    ----------
    graph:
        The social graph.
    advertiser_edge_probabilities:
        One probability array per advertiser (length ``num_edges`` each).
    cpes:
        Cost-per-engagement values; the advertiser of each RR-set is drawn
        with probability ``cpe(i) / Γ``.
    generator_cls:
        RR-set generator class (:class:`RRSetGenerator` or
        :class:`SubsimRRGenerator`).  ``None`` (the default) resolves from
        ``policy`` — SUBSIM when ``policy.rr_engine == "subsim"`` (the
        ``fast`` default), the legacy reverse BFS otherwise.
    n_jobs:
        Shard :meth:`generate_collection` across this many worker processes
        (``None``/1 → serial, untouched seed-compatible path; ``-1`` → all
        cores).  Each shard samples advertisers and generates RR-sets on its
        own ``SeedSequence.spawn()`` substream and shards merge in
        worker-index order, so a fixed ``(seed, n_jobs)`` pair is
        bit-reproducible; ``n_jobs>1`` draws different substreams than the
        serial stream (statistically equivalent collections).  Defaults to
        ``policy.n_jobs`` when a policy is given.
    policy:
        :class:`repro.runtime.ExecutionPolicy` supplying the generator class
        and ``n_jobs`` defaults; explicit arguments win over it.  ``None``
        resolves to :meth:`ExecutionPolicy.fast`.
    runtime:
        :class:`repro.runtime.Runtime` whose persistent worker pool the
        sharded path runs on (falls back to the ambient runtime, then to a
        pool of the call's own; results are bit-identical either way).
    """

    def __init__(
        self,
        graph: CSRDiGraph,
        advertiser_edge_probabilities: Sequence[np.ndarray],
        cpes: Sequence[float],
        generator_cls: Optional[Type[RRSetGenerator]] = None,
        seed: RandomSource = None,
        n_jobs: Optional[int] = None,
        policy: Optional["ExecutionPolicy"] = None,
        runtime: Optional["Runtime"] = None,
    ):
        if len(advertiser_edge_probabilities) != len(cpes):
            raise SamplingError("one edge-probability array per advertiser is required")
        if len(cpes) == 0:
            raise SamplingError("at least one advertiser is required")
        cpe_array = np.asarray(cpes, dtype=np.float64)
        if np.any(cpe_array <= 0):
            raise SamplingError("cpe values must be positive")
        from repro.runtime import resolve_policy

        policy = resolve_policy(policy)
        if generator_cls is None:
            if policy.rr_engine == "subsim":
                from repro.rrsets.generator import SubsimRRGenerator

                generator_cls = SubsimRRGenerator
            else:
                generator_cls = RRSetGenerator
        if n_jobs is None:
            n_jobs = policy.n_jobs
        self._runtime = runtime
        self._graph = graph
        self._cpes = cpe_array
        self._gamma = float(cpe_array.sum())
        self._weights = cpe_array / self._gamma
        self._rng = as_rng(seed)
        self._generator_cls = generator_cls
        self._probability_arrays = list(advertiser_edge_probabilities)
        self._generators: List[RRSetGenerator] = [
            generator_cls(graph, probabilities)
            for probabilities in advertiser_edge_probabilities
        ]
        from repro.parallel import resolve_n_jobs

        self._n_jobs = resolve_n_jobs(n_jobs)

    @property
    def num_advertisers(self) -> int:
        """Number of advertisers ``h``."""
        return len(self._generators)

    @property
    def gamma(self) -> float:
        """``Γ = Σ_i cpe(i)`` — the estimator scale factor numerator."""
        return self._gamma

    @property
    def graph(self) -> CSRDiGraph:
        """The underlying graph."""
        return self._graph

    def edges_examined(self) -> int:
        """Total in-edges examined by all per-advertiser generators."""
        return sum(generator.edges_examined for generator in self._generators)

    def sample_advertiser(self) -> int:
        """Draw an advertiser index with probability proportional to cpe."""
        return int(self._rng.choice(self.num_advertisers, p=self._weights))

    def generate_one(self) -> tuple[np.ndarray, int]:
        """Generate a single ``(rr_set, advertiser)`` pair."""
        advertiser = self.sample_advertiser()
        rr_set = self._generators[advertiser].generate(self._rng)
        return rr_set, advertiser

    def generate_collection(self, count: int, into: Optional[RRCollection] = None) -> RRCollection:
        """Generate ``count`` RR-sets, optionally appending to an existing collection.

        The advertiser draw and the RR-set draw stay interleaved per set (the
        estimator's distribution requires it and it keeps the RNG stream
        bit-compatible with the reference engine); the per-set setup cost is
        amortised by resolving the hot references once for the whole batch.
        """
        if count < 0:
            raise SamplingError("count must be non-negative")
        if self._n_jobs > 1 and count > 1:
            return self._generate_collection_sharded(count, into)
        collection = into if into is not None else RRCollection(
            self._graph.num_nodes, self.num_advertisers
        )
        generate_one = self.generate_one
        add = collection.add
        for _ in range(count):
            rr_set, advertiser = generate_one()
            add(rr_set, advertiser)
        return collection

    def _generate_collection_sharded(
        self, count: int, into: Optional[RRCollection]
    ) -> RRCollection:
        """Sharded collection generation (the ``n_jobs>1`` path).

        Worker substreams are spawned from this sampler's RNG (advancing it,
        so successive calls generate fresh sets) and the tagged shards are
        merged through :meth:`RRCollection.from_shards` /
        :meth:`RRCollection.extend_from_shards` without a per-set round-trip.
        The executor comes from the sampler's :class:`~repro.runtime.Runtime`
        (or the ambient one), so repeated calls — RMA's doubling rounds —
        reuse one persistent worker pool instead of spawning per call.
        """
        from repro.parallel.rr import run_uniform_shards
        from repro.runtime import acquire_executor

        executor = acquire_executor(self._n_jobs, self._runtime)
        shards = run_uniform_shards(
            self._generator_cls,
            self._graph,
            self._probability_arrays,
            self._weights,
            count,
            self._rng,
            executor,
        )
        for shard in shards:
            for advertiser, edges in enumerate(shard.edges_examined.tolist()):
                self._generators[advertiser].record_edges_examined(edges)
        triples = [(shard.members, shard.sizes, shard.tags) for shard in shards]
        if into is None:
            return RRCollection.from_shards(
                self._graph.num_nodes, self.num_advertisers, triples
            )
        into.extend_from_shards(triples)
        return into


class PerAdvertiserRRSampler:
    """Equal-sized per-advertiser RR-set pools (the strategy the paper improves on).

    Generates ``count`` RR-sets for *each* advertiser.  Used by the TI-CARM /
    TI-CSRM baselines (which extend TIM and keep one sample per ad) and by the
    sampling ablation.
    """

    def __init__(
        self,
        graph: CSRDiGraph,
        advertiser_edge_probabilities: Sequence[np.ndarray],
        generator_cls: Type[RRSetGenerator] = RRSetGenerator,
        seed: RandomSource = None,
    ):
        if len(advertiser_edge_probabilities) == 0:
            raise SamplingError("at least one advertiser is required")
        self._graph = graph
        self._rng = as_rng(seed)
        self._generators: List[RRSetGenerator] = [
            generator_cls(graph, probabilities)
            for probabilities in advertiser_edge_probabilities
        ]

    @property
    def num_advertisers(self) -> int:
        """Number of advertisers ``h``."""
        return len(self._generators)

    def edges_examined(self) -> int:
        """Total in-edges examined by all per-advertiser generators."""
        return sum(generator.edges_examined for generator in self._generators)

    def generate_pool(self, advertiser: int, count: int) -> List[np.ndarray]:
        """Generate ``count`` RR-sets for a single advertiser."""
        if not 0 <= advertiser < self.num_advertisers:
            raise SamplingError("advertiser index out of range")
        if count < 0:
            raise SamplingError("count must be non-negative")
        return self._generators[advertiser].generate_many(count, self._rng)

    def generate_collection(self, count_per_advertiser: int) -> RRCollection:
        """Generate equally sized pools for every advertiser in one tagged collection."""
        collection = RRCollection(self._graph.num_nodes, self.num_advertisers)
        for advertiser in range(self.num_advertisers):
            for rr_set in self.generate_pool(advertiser, count_per_advertiser):
                collection.add(rr_set, advertiser)
        return collection
