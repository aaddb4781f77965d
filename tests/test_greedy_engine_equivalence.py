"""Equivalence proofs for the lazy-greedy element engines.

Every greedy consumer has one selection loop on
:class:`repro.utils.lazy_heap.BatchedLazyGreedy`; the element evaluator is
picked from the oracle (:mod:`repro.core.batched_greedy`): coverage gathers
for an RR-set oracle, per-element oracle callbacks for every other oracle.
These tests pin

* the heap against the scalar reference heap
  (``tests/reference/lazy_heap.py``): identical pop sequences and
  identical sequences of evaluated keys under scripted value decay;
* the two engines against each other on the same RR-set collection, through
  every consumer — Algorithm 1, ThresholdGreedy + Fill, ``gamma_max``,
  RM_with_Oracle, CA/CS-Greedy.  ``CallbackView``
  (``tests/reference/oracle_view.py``) hides the :class:`RRSetOracle` type,
  which forces the callback engine onto the same revenue function;
* the callback engine on a Monte-Carlo oracle against a scalar reference
  loop: same allocation *and* same number of oracle queries.

The sampling solvers and the TI baselines are pinned end to end by
``tests/data/preflip_golden.json``; Monte-Carlo allocations of every
consumer by ``tests/data/mc_oracle_golden.json``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.lazy_heap import LazyMarginalHeap
from reference.oracle_view import CallbackView
from repro.advertising.advertiser import Advertiser
from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle, RRSetOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core.batched_greedy import (
    CoverageGreedyEngine,
    OracleGreedyEngine,
    PerAdvertiserCoverageEngine,
    engine_for,
)
from repro.core.greedy import greedy_single_advertiser, marginal_rate
from repro.core.oracle_solver import rm_with_oracle
from repro.core.search import gamma_max
from repro.core.threshold_greedy import fill, threshold_greedy
from repro.diffusion.models import (
    IndependentCascadeModel,
    TrivalencyModel,
    WeightedCascadeModel,
)
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.runtime import ExecutionPolicy
from repro.utils.lazy_heap import BatchedLazyGreedy

MODELS = [IndependentCascadeModel, WeightedCascadeModel, TrivalencyModel]


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_digraph(250, out_degree=4, seed=1)


def _instance_and_oracle(graph, model_cls=WeightedCascadeModel, h=3, count=500, seed=5):
    model = model_cls(graph)
    n = graph.num_nodes
    advertisers = [
        Advertiser(budget=170.0 + 40.0 * i, cpe=1.0 + 0.5 * (i % 2)) for i in range(h)
    ]
    costs = np.random.default_rng(seed).uniform(0.5, 3.0, size=(h, n))
    instance = RMInstance(graph, model, advertisers, costs)
    probabilities = np.asarray(model.edge_probabilities(), dtype=np.float64)
    rr_sets = RRSetGenerator(graph, probabilities).generate_batch(count, rng=seed)
    tags = np.random.default_rng(seed + 1).integers(0, h, size=count)
    collection = RRCollection(n, h)
    for rr_set, tag in zip(rr_sets, tags):
        collection.add(rr_set, int(tag))
    return instance, RRSetOracle(collection, instance.gamma)


def _allocations_equal(one: Allocation, other: Allocation, h: int) -> bool:
    return all(one.seeds(i) == other.seeds(i) for i in range(h))


# --------------------------------------------------------------------- #
# heap-level identity
# --------------------------------------------------------------------- #
class _DecayingValues:
    """Scripted submodular-style values: non-increasing between rounds."""

    def __init__(self, keys, seed):
        rng = np.random.default_rng(seed)
        # Plenty of exact ties: values are small integers (like coverage counts).
        self.values = {key: float(v) for key, v in zip(keys, rng.integers(0, 8, len(keys)))}
        self._rng = rng

    def decay(self):
        for key in list(self.values):
            if self._rng.random() < 0.4:
                self.values[key] = max(0.0, self.values[key] - float(self._rng.integers(1, 3)))

    def scalar(self, key):
        return self.values[key]

    def batch(self, keys):
        return np.array([self.values[int(k)] for k in np.asarray(keys)], dtype=np.float64)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_batched_heap_pop_sequence_matches_scalar(seed):
    """Same pushes + same value decay ⇒ identical pops and evaluations, tie for tie."""
    keys = list(range(60))
    table = _DecayingValues(keys, seed)
    scalar_evaluated, batched_evaluated = [], []

    def scalar_evaluate(key):
        scalar_evaluated.append(key)
        return table.scalar(key)

    def batched_evaluate(key):
        batched_evaluated.append(key)
        return table.scalar(key)

    scalar = LazyMarginalHeap(scalar_evaluate)
    batched = BatchedLazyGreedy(batched_evaluate)
    scalar.push_many(keys)
    batched.push_array(np.asarray(keys, dtype=np.int64), table.batch(keys))
    # Insertion evaluates every key once in key order on the scalar side;
    # on the batched side the values came in bulk.  Compare refreshes only.
    assert scalar_evaluated == keys
    scalar_evaluated.clear()

    popped = []
    while len(scalar):
        a = scalar.pop_best()
        b = batched.pop_best()
        assert a == b
        assert batched_evaluated == scalar_evaluated
        popped.append(a)
        # A "selection" happened: values decay and both heaps are staled.
        table.decay()
        scalar.advance_round()
        batched.advance_round()
    assert batched.pop_best() is None
    assert len(batched) == 0
    assert len(popped) == len(keys)
    assert len(batched_evaluated) > 0


def test_batched_heap_refreshes_one_key_per_stale_surfacing():
    """A stale round costs one ``evaluate(key)`` per entry that surfaces, no lookahead."""
    values = {0: 10.0, 1: 8.0, 2: 6.0, 3: 4.0}
    evaluated = []

    def evaluate(key):
        evaluated.append(key)
        return values[key]

    heap = BatchedLazyGreedy(evaluate)
    heap.push_array(np.array(list(values), dtype=np.int64), np.array(list(values.values())))
    assert evaluated == []  # bulk values: insertion evaluates nothing

    heap.advance_round()  # values unchanged: only the top is refreshed
    assert heap.pop_best() == (0, 10.0)
    assert evaluated == [0]

    evaluated.clear()
    values[1] = 5.0  # key 1 decays below key 2
    heap.advance_round()
    assert heap.pop_best() == (2, 6.0)
    assert evaluated == [1, 2]
    assert len(heap) == 2


def test_batched_heap_ties_resolve_by_insertion_and_refresh_order():
    """Equal values pop in insertion order, across ``push_array`` calls; a
    refreshed entry queues behind the untouched entries of equal value."""
    heap = BatchedLazyGreedy(lambda key: 1.0)
    heap.push_array(np.array([7, 3], dtype=np.int64), np.array([1.0, 1.0]))
    heap.push_array(np.array([5, 1], dtype=np.int64), np.array([1.0, 1.0]))
    assert [heap.pop_best()[0] for _ in range(2)] == [7, 3]

    heap.push_array(np.array([9], dtype=np.int64), np.array([1.0]))
    heap.advance_round()
    # Every entry is stale; each refresh gets a fresh counter, so the
    # refreshed top sinks behind the equal-valued entries still to refresh.
    assert [heap.pop_best()[0] for _ in range(3)] == [5, 1, 9]
    assert heap.pop_best() is None


def test_batched_heap_push_array_rejects_length_mismatch():
    heap = BatchedLazyGreedy(lambda key: 0.0)
    with pytest.raises(ValueError):
        heap.push_array(np.arange(3, dtype=np.int64), np.zeros(2))
    assert len(heap) == 0


def test_batched_heap_empty():
    heap = BatchedLazyGreedy(lambda key: 0.0)
    assert heap.pop_best() is None
    heap.push_array(np.empty(0, dtype=np.int64), np.empty(0))
    heap.advance_round()
    assert len(heap) == 0
    assert heap.pop_best() is None


@settings(max_examples=60, deadline=None)
@given(
    initial=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=16,
    ),
    factors=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=16),
)
def test_batched_heap_selection_matches_eager_argmax(initial, factors):
    """Per-key decay between rounds: every lazy pop is the current eager arg-max."""
    values = dict(initial)
    heap = BatchedLazyGreedy(lambda key: values[key])
    keys = sorted(values)
    heap.push_array(np.array(keys, dtype=np.int64), np.array([values[k] for k in keys]))
    remaining = set(keys)
    for step in range(len(keys)):
        key, value = heap.pop_best()
        assert key in remaining
        assert value == values[key] == max(values[k] for k in remaining)
        remaining.discard(key)
        for offset, other in enumerate(sorted(remaining)):
            values[other] *= factors[(step + offset) % len(factors)]
        heap.advance_round()
    assert heap.pop_best() is None


# --------------------------------------------------------------------- #
# consumer-level identity: coverage engine vs callback engine
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("seed", [5, 11])
def test_cs_and_ca_greedy_bit_identical(graph, model_cls, seed):
    instance, oracle = _instance_and_oracle(graph, model_cls, seed=seed)
    h = instance.num_advertisers
    for solver in (cs_greedy, ca_greedy):
        coverage = solver(instance, oracle)
        callback = solver(instance, CallbackView(oracle))
        assert _allocations_equal(coverage.allocation, callback.allocation, h)
        assert coverage.revenue == callback.revenue
        assert coverage.depleted_budgets == callback.depleted_budgets


@pytest.mark.parametrize("seed", [5, 11, 42])
def test_greedy_single_advertiser_bit_identical(graph, seed):
    instance, oracle = _instance_and_oracle(graph, seed=seed)
    for advertiser in range(instance.num_advertisers):
        assert greedy_single_advertiser(
            instance, oracle, advertiser
        ) == greedy_single_advertiser(instance, CallbackView(oracle), advertiser)


def test_greedy_single_advertiser_candidate_subset(graph):
    instance, oracle = _instance_and_oracle(graph)
    candidates = list(range(0, graph.num_nodes, 3))
    assert greedy_single_advertiser(
        instance, oracle, 1, candidates=candidates
    ) == greedy_single_advertiser(instance, CallbackView(oracle), 1, candidates=candidates)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 10.0])
def test_threshold_greedy_bit_identical(graph, gamma):
    instance, oracle = _instance_and_oracle(graph)
    h = instance.num_advertisers
    coverage, b_coverage = threshold_greedy(instance, oracle, gamma)
    callback, b_callback = threshold_greedy(instance, CallbackView(oracle), gamma)
    assert b_coverage == b_callback
    assert _allocations_equal(coverage, callback, h)


def test_fill_bit_identical_from_partial_allocation(graph):
    instance, oracle = _instance_and_oracle(graph)
    h = instance.num_advertisers
    start = Allocation(h)
    for advertiser, node in [(0, 3), (0, 17), (1, 25), (2, 4)]:
        start.assign(node, advertiser)
    coverage = fill(instance, oracle, start)
    callback = fill(instance, CallbackView(oracle), start)
    assert _allocations_equal(coverage, callback, h)


@pytest.mark.parametrize("h", [1, 3, 4])
def test_rm_with_oracle_bit_identical(graph, h):
    """Covers all three dispatch arms of Algorithm 5 (h=1, h≤3, h≥4)."""
    instance, oracle = _instance_and_oracle(graph, h=h)
    coverage = rm_with_oracle(instance, oracle)
    callback = rm_with_oracle(instance, CallbackView(oracle))
    assert _allocations_equal(coverage.allocation, callback.allocation, h)
    assert coverage.revenue == callback.revenue
    assert coverage.metadata == callback.metadata


def test_gamma_max_bit_identical(graph):
    instance, oracle = _instance_and_oracle(graph)
    view = CallbackView(oracle)
    assert gamma_max(instance, oracle) == gamma_max(instance, view)
    subset = list(range(0, graph.num_nodes, 7))
    assert gamma_max(instance, oracle, candidates=subset) == gamma_max(
        instance, view, candidates=subset
    )


def test_coverage_engine_matches_oracle_marginals(graph):
    """Engine gains/rates equal the oracle's floats while seeds accumulate."""
    instance, oracle = _instance_and_oracle(graph)
    engine = engine_for(instance, oracle)
    assert isinstance(engine, CoverageGreedyEngine)
    rng = np.random.default_rng(2)
    seeds: dict[int, set[int]] = {i: set() for i in range(instance.num_advertisers)}
    for step, node in enumerate(rng.permutation(graph.num_nodes)[:40].tolist()):
        advertiser = step % instance.num_advertisers
        expected = oracle.marginal_revenue(advertiser, node, seeds[advertiser])
        assert engine.gain(advertiser, node) == expected
        key = np.array([engine.encode(node, advertiser)], dtype=np.int64)
        assert engine.gains(key)[0] == expected
        assert engine.rates(key)[0] == marginal_rate(
            expected, instance.cost(advertiser, node)
        )
        seeds[advertiser].add(node)
        engine.add_seed(advertiser, node)
    for advertiser, assigned in seeds.items():
        assert engine.revenue_for(advertiser) == pytest.approx(
            oracle.revenue(advertiser, assigned)
        )


def test_scalar_refresh_matches_batch_gather(graph):
    """``key_gain``/``key_rate`` are the floats ``gains``/``rates`` gather.

    Bulk insertion uses the batch evaluators and heap refreshes the scalar
    ones, so the two must agree bit for bit on every engine.
    """
    instance, oracle = _instance_and_oracle(graph)
    h = instance.num_advertisers
    scales = np.array([oracle.scale * (1.0 + 0.3 * i) for i in range(h)])
    engines = [
        engine_for(instance, oracle),
        engine_for(instance, CallbackView(oracle)),
        PerAdvertiserCoverageEngine(instance, oracle.collection, scales),
    ]
    rng = np.random.default_rng(4)
    keys = rng.permutation(h * graph.num_nodes)[:120].astype(np.int64)
    for step, node in enumerate(rng.permutation(graph.num_nodes)[:12].tolist()):
        for engine in engines:
            gains, rates = engine.gains(keys), engine.rates(keys)
            assert [engine.key_gain(key) for key in keys.tolist()] == gains.tolist()
            assert [engine.key_rate(key) for key in keys.tolist()] == rates.tolist()
            engine.add_seed(step % h, node)


# --------------------------------------------------------------------- #
# Monte-Carlo oracle: the callback engine replays the scalar query schedule
# --------------------------------------------------------------------- #
def _reference_cs_greedy(instance, oracle):
    """CS-Greedy as a scalar CELF loop over ``(node, advertiser)`` tuples."""
    h = instance.num_advertisers
    budgets = instance.budgets()
    allocation = Allocation(h)
    revenue = {i: 0.0 for i in range(h)}
    cost = {i: 0.0 for i in range(h)}
    closed = set()

    def evaluate(element):
        node, advertiser = element
        gain = oracle.marginal_revenue(advertiser, node, allocation.seeds(advertiser))
        return marginal_rate(gain, instance.cost(advertiser, node))

    heap = LazyMarginalHeap(evaluate)
    for advertiser in range(h):
        for node in range(instance.num_nodes):
            singleton = oracle.revenue(advertiser, {node})
            if instance.cost(advertiser, node) + singleton <= budgets[advertiser]:
                heap.push((node, advertiser))
    while len(heap) and len(closed) < h:
        (node, advertiser), _rate = heap.pop_best()
        if advertiser in closed or allocation.is_assigned(node):
            continue
        gain = oracle.marginal_revenue(advertiser, node, allocation.seeds(advertiser))
        node_cost = instance.cost(advertiser, node)
        if cost[advertiser] + node_cost + revenue[advertiser] + gain <= budgets[advertiser]:
            allocation.assign(node, advertiser)
            revenue[advertiser] += gain
            cost[advertiser] += node_cost
            heap.advance_round()
        else:
            closed.add(advertiser)
    return allocation


def test_monte_carlo_oracle_gets_callback_engine():
    """Callback engine ⇒ the scalar loop's allocation and query count."""
    tiny = preferential_attachment_digraph(30, out_degree=2, seed=2)
    model = WeightedCascadeModel(tiny)
    advertisers = [Advertiser(budget=25.0, cpe=1.0) for _ in range(2)]
    for seed in (11, 12, 13):
        costs = np.random.default_rng(seed).uniform(1.0, 2.0, size=(2, tiny.num_nodes))
        instance = RMInstance(tiny, model, advertisers, costs)
        oracles = [
            MonteCarloOracle(
                instance, num_simulations=40, seed=seed, policy=ExecutionPolicy.seed()
            )
            for _ in range(2)
        ]
        engine = engine_for(instance, oracles[0])
        assert isinstance(engine, OracleGreedyEngine)
        expected = _reference_cs_greedy(instance, oracles[0])
        result = cs_greedy(instance, oracles[1])
        assert _allocations_equal(expected, result.allocation, 2)
        assert oracles[1].query_count == oracles[0].query_count
