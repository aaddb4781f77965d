"""Element engines for the lazy-greedy loops — one loop, two evaluators.

Every greedy consumer in the repo (Algorithms 1-3, ``gamma_max``,
CA/CS-Greedy, the TI allocation) ranks ``(node, advertiser)`` elements by marginal gain or
marginal rate.  Each consumer has exactly one selection loop, written over
int64 element keys and driven by
:class:`~repro.utils.lazy_heap.BatchedLazyGreedy`; what differs between
oracles is only how elements are evaluated.  That is this module's job:

* **Element encoding** — an element ``(node, advertiser)`` is the int64 key
  ``advertiser · n + node``, i.e. the *flat index* into both the raveled
  ``(h, n)`` marginal matrix and the raveled ``(h, n)`` seeding-cost matrix.
  Decoding is one ``divmod``; a batch of keys gathers costs with plain fancy
  indexing, no per-element arithmetic.
* :class:`CoverageGreedyEngine` — for an
  :class:`~repro.advertising.oracle.RRSetOracle` the marginals are pure
  maximum-coverage counts.  The engine owns a fresh
  :class:`~repro.rrsets.collection.CoverageState` over the oracle's
  collection, so the initial candidate set is evaluated with **one** gather
  ``scale · marginal[keys]`` (plus one vectorized rate transform for the
  rate-ranked consumers) and each stale refresh is one scalar lookup.
  Gains are ``scale × integer-count`` exactly like the oracle's own
  answers, so accept/reject decisions see the same floats.
  :class:`PerAdvertiserCoverageEngine` is the same engine with one scale
  per advertiser, for the TI baselines' separately sized RR pools.
* :class:`OracleGreedyEngine` — every other oracle (Monte-Carlo, exact): one
  ``oracle.revenue`` / ``oracle.marginal_revenue`` call per element, in key
  order.  A :class:`~repro.advertising.oracle.MonteCarloOracle` draws every
  fresh query from one shared RNG; the heap evaluates exactly the elements
  the textbook scalar CELF schedule refreshes, in the same order, so the
  oracle sees the scalar query sequence.

Both engines expose the same methods (batch :meth:`gains` / :meth:`rates`
for bulk insertion, scalar :meth:`key_gain` / :meth:`key_rate` for heap
refreshes, :meth:`gain`, :meth:`feasible_element_keys`, :meth:`add_seed`,
...); :func:`engine_for` picks one from the oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle, RRSetOracle
from repro.exceptions import ProblemDefinitionError
from repro.rrsets.collection import CoverageState, RRCollection


class _ElementEngine:
    """Shared element encoding, rate transform and feasibility filters.

    Subclasses supply :meth:`gains`, :meth:`key_gain`,
    :meth:`singleton_gains` and :meth:`add_seed`.
    """

    def __init__(self, instance: RMInstance):
        self._instance = instance
        self._num_nodes = instance.num_nodes
        self._cost_flat = instance.cost_matrix().ravel()

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes ``n`` (the key-encoding stride)."""
        return self._num_nodes

    def encode(self, node: int, advertiser: int) -> int:
        """Flat element key ``advertiser·n + node``."""
        return advertiser * self._num_nodes + int(node)

    # ------------------------------------------------------------------ #
    # evaluators (gains / singleton_gains come from the subclass)
    # ------------------------------------------------------------------ #
    def gains(self, keys: np.ndarray) -> np.ndarray:
        """Marginal revenues ``π_i(u | S_i)`` for a batch of element keys."""
        raise NotImplementedError

    def key_gain(self, key: int) -> float:
        """Marginal revenue of one element key (a heap refresh)."""
        raise NotImplementedError

    def singleton_gains(self, keys: np.ndarray) -> np.ndarray:
        """Singleton revenues ``π_i({u})`` for a batch of element keys."""
        raise NotImplementedError

    def _to_rates(self, gains: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``ζ = gain / (cost + gain)``, 0 for non-positive gains.

        Elementwise identical (IEEE-754) to the scalar
        :func:`repro.core.greedy.marginal_rate` on the same gains/costs.
        """
        positive = gains > 0.0
        rates = np.zeros(gains.shape, dtype=np.float64)
        np.divide(gains, self._cost_flat[keys] + gains, out=rates, where=positive)
        return rates

    def rates(self, keys: np.ndarray) -> np.ndarray:
        """Marginal rates ``ζ_i(u | S_i)`` for a batch of element keys."""
        return self._to_rates(self.gains(keys), keys)

    def singleton_rates(self, keys: np.ndarray) -> np.ndarray:
        """Singleton rates ``ζ_i(u | ∅)`` for a batch of element keys."""
        return self._to_rates(self.singleton_gains(keys), keys)

    def key_rate(self, key: int) -> float:
        """Marginal rate of one element key, the same float :meth:`rates` gives."""
        gain = self.key_gain(key)
        if gain <= 0.0:
            return 0.0
        return gain / (self._cost_flat.item(key) + gain)

    # ------------------------------------------------------------------ #
    # feasibility initialisation
    # ------------------------------------------------------------------ #
    def candidate_nodes(self, candidates: Optional[Iterable[int]]) -> np.ndarray:
        """Candidate pool as an int64 array (defaults to all nodes), validated.

        The one place a ``candidates=`` argument is checked: every greedy
        consumer raises :class:`ProblemDefinitionError` for an out-of-range
        node, whatever the oracle, before any oracle query.
        """
        if candidates is None:
            return np.arange(self._num_nodes, dtype=np.int64)
        nodes = np.asarray([int(node) for node in candidates], dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            bad = nodes[(nodes < 0) | (nodes >= self._num_nodes)][0]
            raise ProblemDefinitionError(f"node {bad} out of range")
        return nodes

    def singleton_feasible_nodes(
        self, advertiser: int, budget: float, candidates: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """Nodes whose singleton cost + revenue fits ``budget`` (Line 1 of Alg. 1).

        Singleton revenues are evaluated in candidate order.
        """
        nodes = self.candidate_nodes(candidates)
        keys = advertiser * self._num_nodes + nodes
        mask = self._cost_flat[keys] + self.singleton_gains(keys) <= budget
        return nodes[mask]

    def feasible_element_keys(
        self,
        budgets: np.ndarray,
        candidates: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """All singleton-feasible element keys, advertiser-major.

        The element order (advertiser-major, candidate order within each
        advertiser) is behaviour: the lazy heap breaks exact ties by
        insertion order, and an RNG-backed oracle answers its singleton
        queries in this order.
        """
        nodes = self.candidate_nodes(candidates)
        chunks: List[np.ndarray] = []
        for advertiser in range(self._instance.num_advertisers):
            keys = advertiser * self._num_nodes + nodes
            mask = self._cost_flat[keys] + self.singleton_gains(keys) <= budgets[advertiser]
            chunks.append(keys[mask])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # ------------------------------------------------------------------ #
    # scalar access and state updates (from the subclass)
    # ------------------------------------------------------------------ #
    def gain(self, advertiser: int, node: int) -> float:
        """Scalar marginal revenue — the same float the oracle would return."""
        return self.key_gain(advertiser * self._num_nodes + int(node))

    def add_seed(self, advertiser: int, node: int) -> None:
        """Assign ``node`` to ``advertiser`` in the engine's own seed state."""
        raise NotImplementedError


class CoverageGreedyEngine(_ElementEngine):
    """Vectorized marginal evaluation over an RR-set collection's coverage state.

    Parameters
    ----------
    instance:
        Supplies the ``(h, n)`` seeding-cost matrix and budgets.
    collection:
        The advertiser-tagged RR-set collection backing the coverage state;
        it must cover the instance's advertisers.  The engine builds its own
        :class:`CoverageState`, so an oracle over the same collection keeps
        its caches and remains usable for final revenue queries.
    scale:
        Revenue per covered RR set (:attr:`RRSetOracle.scale`).
    """

    def __init__(self, instance: RMInstance, collection: RRCollection, scale: float):
        super().__init__(instance)
        self._scale = scale
        self._singleton_flat = collection.membership_counts().ravel()
        self._state = CoverageState(collection)
        # Flat view sharing the underlying buffer: marginal updates made by
        # add_seed are visible through _marginal_flat with no re-gather.
        self._marginal_flat = self._state.marginal_matrix().ravel()

    def gains(self, keys: np.ndarray) -> np.ndarray:
        return self._scale * self._marginal_flat[keys]

    def key_gain(self, key: int) -> float:
        return self._scale * self._marginal_flat.item(key)

    def singleton_gains(self, keys: np.ndarray) -> np.ndarray:
        # Singleton revenue is scale × membership count: the initial
        # marginal matrix, whatever seeds have been added since.
        return self._scale * self._singleton_flat[keys]

    def add_seed(self, advertiser: int, node: int) -> None:
        # Only RR-sets tagged ``advertiser`` are covered (tags partition the
        # collection), so the other advertisers' marginal rows are untouched.
        self._state.add_seed(advertiser, int(node))

    def revenue_for(self, advertiser: int) -> float:
        """``scale × covered count`` for one advertiser's accumulated seeds."""
        return self._scale * self._state.covered_count_for(advertiser)


class PerAdvertiserCoverageEngine(CoverageGreedyEngine):
    """:class:`CoverageGreedyEngine` with one revenue scale per advertiser.

    The TI baselines draw a separately sized RR pool per advertiser and
    merge the pools into one tagged collection, so advertiser ``i``'s
    revenue per covered set is ``scales[i]``.  Gains are
    ``scales[i] × integer-count``, as with a single scale.
    """

    def __init__(self, instance: RMInstance, collection: RRCollection, scales: np.ndarray):
        super().__init__(instance, collection, 1.0)
        self._scales = np.asarray(scales, dtype=np.float64)
        self._scale_flat = np.repeat(self._scales, self._num_nodes)

    def gains(self, keys: np.ndarray) -> np.ndarray:
        return self._scale_flat[keys] * self._marginal_flat[keys]

    def key_gain(self, key: int) -> float:
        return self._scale_flat.item(key) * self._marginal_flat.item(key)

    def singleton_gains(self, keys: np.ndarray) -> np.ndarray:
        return self._scale_flat[keys] * self._singleton_flat[keys]

    def revenue_for(self, advertiser: int) -> float:
        return self._scales[advertiser] * self._state.covered_count_for(advertiser)


class OracleGreedyEngine(_ElementEngine):
    """Per-element oracle callbacks for oracles without a coverage matrix.

    Every evaluation is one oracle query — ``revenue(i, {u})`` for
    singletons, ``marginal_revenue(i, u, S_i)`` otherwise — issued in key
    order, against seed sets the engine accumulates through
    :meth:`add_seed`.  A :class:`~repro.utils.lazy_heap.BatchedLazyGreedy`
    driven by this engine queries exactly the elements a scalar CELF loop
    would, in the same order; a shared-RNG Monte-Carlo oracle therefore
    returns the same estimates to both.
    """

    def __init__(self, instance: RMInstance, oracle: RevenueOracle):
        super().__init__(instance)
        self._oracle = oracle
        self._seeds: Dict[int, Set[int]] = {
            advertiser: set() for advertiser in range(instance.num_advertisers)
        }

    def gains(self, keys: np.ndarray) -> np.ndarray:
        return np.array([self.key_gain(key) for key in keys.tolist()], dtype=np.float64)

    def key_gain(self, key: int) -> float:
        advertiser, node = divmod(key, self._num_nodes)
        return self._oracle.marginal_revenue(advertiser, node, self._seeds[advertiser])

    def singleton_gains(self, keys: np.ndarray) -> np.ndarray:
        n = self._num_nodes
        pairs = (divmod(key, n) for key in keys.tolist())
        return np.array(
            [self._oracle.revenue(advertiser, {node}) for advertiser, node in pairs],
            dtype=np.float64,
        )

    def add_seed(self, advertiser: int, node: int) -> None:
        self._seeds[advertiser].add(int(node))


def engine_for(instance: RMInstance, oracle: RevenueOracle) -> _ElementEngine:
    """The element engine for ``oracle``: coverage gathers or oracle callbacks.

    Coverage gathers need an :class:`RRSetOracle` covering at least the
    instance's advertisers; every other oracle gets per-element callbacks.
    """
    if (
        isinstance(oracle, RRSetOracle)
        and oracle.num_advertisers >= instance.num_advertisers
    ):
        return CoverageGreedyEngine(instance, oracle.collection, oracle.scale)
    return OracleGreedyEngine(instance, oracle)
