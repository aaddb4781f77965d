"""Statistical-equivalence harness for the batched Monte-Carlo cascade engine.

Three layers of evidence, mirroring the RR-engine equivalence suite:

1. **Bit-identity** — the default path in :mod:`repro.diffusion.simulation`
   must reproduce the seed implementation preserved in
   ``tests/reference/diffusion_legacy.py`` exactly (same RNG draw order, same floats).
2. **Statistical equivalence** — the batched engine draws in a different
   order, so it is pinned with fixed-seed statistical tests instead: a
   two-sample Kolmogorov–Smirnov test on the per-cascade activation-size
   distributions and mean-within-kσ checks against the legacy estimator,
   ``exact_spread`` and the RR-set estimator, across IC / WC / Trivalency
   micro-graphs.
3. **Enumeration pin** — the reachable-edge-restricted ``exact_spread``
   must agree with the seed tree's full ``itertools.product`` enumeration
   wherever both are feasible.

All thresholds are evaluated on fixed seeds, so the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle
from repro.diffusion.engine import (
    default_batch_size,
    monte_carlo_spread as batched_monte_carlo_spread,
    simulate_cascades_batch,
    singleton_spreads_monte_carlo as batched_singleton_spreads,
)
from reference.diffusion_legacy import (
    legacy_exact_spread,
    legacy_monte_carlo_spread,
    legacy_simulate_cascade,
    legacy_singleton_spreads_monte_carlo,
)
from repro.diffusion.models import (
    IndependentCascadeModel,
    TrivalencyModel,
    WeightedCascadeModel,
)
from repro.diffusion.simulation import (
    exact_spread,
    monte_carlo_spread,
    simulate_cascade,
    singleton_spreads_monte_carlo,
)
from repro.exceptions import DiffusionError
from repro.graph.builders import from_edge_list
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.estimators import estimate_spread
from repro.rrsets.generator import RRSetGenerator
from repro.runtime import ExecutionPolicy

MODELS = [IndependentCascadeModel, WeightedCascadeModel, TrivalencyModel]


def _probabilities(model_cls, graph):
    if model_cls is TrivalencyModel:
        model = TrivalencyModel(graph, values=(0.6, 0.3, 0.1), seed=4)
    elif model_cls is IndependentCascadeModel:
        model = IndependentCascadeModel(graph, probability=0.3)
    else:
        model = model_cls(graph)
    return np.asarray(model.edge_probabilities(), dtype=np.float64)


@pytest.fixture(scope="module")
def micro_graph():
    """A 30-node preferential-attachment micro-graph."""
    return preferential_attachment_digraph(30, out_degree=3, seed=2)


@pytest.fixture(scope="module")
def medium_graph():
    """A 200-node graph for the bit-identity sweeps."""
    return preferential_attachment_digraph(200, out_degree=4, seed=1)


def _ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (no scipy dependency)."""
    grid = np.union1d(sample_a, sample_b)
    cdf_a = np.searchsorted(np.sort(sample_a), grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(np.sort(sample_b), grid, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_threshold(n: int, m: int, alpha: float = 1e-3) -> float:
    """Critical KS distance at significance ``alpha`` (asymptotic form)."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


def _legacy_sizes(graph, probabilities, seeds, count, seed):
    rng = np.random.default_rng(seed)
    return np.array(
        [
            len(legacy_simulate_cascade(graph, probabilities, seeds, rng))
            for _ in range(count)
        ],
        dtype=np.float64,
    )


def _batched_sizes(graph, probabilities, seeds, count, seed):
    bitmap = simulate_cascades_batch(
        graph, probabilities, seeds, num_cascades=count, rng=seed
    )
    return bitmap.sum(axis=1).astype(np.float64)


# --------------------------------------------------------------------------- #
# 1. bit-identity of the default (seed) path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("seed", [3, 17])
def test_default_cascade_path_bit_identical_to_legacy(medium_graph, model_cls, seed):
    """Same seed ⇒ identical activated sets, cascade by cascade."""
    probabilities = _probabilities(model_cls, medium_graph)
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    for _ in range(40):
        new = simulate_cascade(medium_graph, probabilities, [0, 5, 9], rng_new)
        old = legacy_simulate_cascade(medium_graph, probabilities, [0, 5, 9], rng_old)
        assert new == old


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
def test_default_monte_carlo_spread_bit_identical_to_legacy(medium_graph, model_cls):
    probabilities = _probabilities(model_cls, medium_graph)
    new = monte_carlo_spread(medium_graph, probabilities, [1, 2, 3], 150, rng=11)
    old = legacy_monte_carlo_spread(medium_graph, probabilities, [1, 2, 3], 150, rng=11)
    assert new == old


def test_default_singleton_spreads_bit_identical_to_legacy(micro_graph):
    probabilities = _probabilities(WeightedCascadeModel, micro_graph)
    new = singleton_spreads_monte_carlo(micro_graph, probabilities, 60, rng=5)
    old = legacy_singleton_spreads_monte_carlo(micro_graph, probabilities, 60, rng=5)
    assert np.array_equal(new, old)


# --------------------------------------------------------------------------- #
# 2. statistical equivalence of the batched engine
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
def test_batched_vs_legacy_ks_on_cascade_sizes(micro_graph, model_cls):
    """Per-cascade activation sizes must come from the same distribution."""
    probabilities = _probabilities(model_cls, micro_graph)
    seeds = [0, 4]
    count = 4000
    legacy_sample = _legacy_sizes(micro_graph, probabilities, seeds, count, seed=23)
    batched_sample = _batched_sizes(micro_graph, probabilities, seeds, count, seed=29)
    statistic = _ks_statistic(legacy_sample, batched_sample)
    assert statistic <= _ks_threshold(count, count)


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
def test_batched_vs_legacy_mean_within_3_sigma(micro_graph, model_cls):
    probabilities = _probabilities(model_cls, micro_graph)
    seeds = [1, 7]
    count = 4000
    legacy_sample = _legacy_sizes(micro_graph, probabilities, seeds, count, seed=31)
    batched_sample = _batched_sizes(micro_graph, probabilities, seeds, count, seed=37)
    pooled_se = float(
        np.sqrt(legacy_sample.var() / count + batched_sample.var() / count)
    )
    assert abs(legacy_sample.mean() - batched_sample.mean()) <= 3.0 * pooled_se + 1e-9


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
def test_all_four_estimators_agree_on_micro_graph(model_cls):
    """Batched MC, legacy MC, exact enumeration and the RR-set estimator must
    tell the same story about σ(seeds) on a graph where all four run."""
    graph = from_edge_list(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5), (1, 5)], num_nodes=6
    )
    probabilities = _probabilities(model_cls, graph)
    seeds = [0]
    exact = exact_spread(graph, probabilities, seeds)

    count = 6000
    batched_sample = _batched_sizes(graph, probabilities, seeds, count, seed=41)
    legacy_sample = _legacy_sizes(graph, probabilities, seeds, 2000, seed=43)
    batched_se = float(np.sqrt(batched_sample.var() / batched_sample.size))
    legacy_se = float(np.sqrt(legacy_sample.var() / legacy_sample.size))
    assert batched_sample.mean() == pytest.approx(exact, abs=4 * batched_se + 1e-9)
    assert legacy_sample.mean() == pytest.approx(exact, abs=4 * legacy_se + 1e-9)

    num_rr = 20000
    rr_sets = RRSetGenerator(graph, probabilities).generate_batch(num_rr, rng=47)
    rr_estimate = estimate_spread(rr_sets, seeds, graph.num_nodes)
    # σ̂ = n·f̂ with f̂ a binomial proportion over num_rr trials.
    fraction = rr_estimate / graph.num_nodes
    rr_se = graph.num_nodes * float(
        np.sqrt(max(fraction * (1 - fraction), 1e-12) / num_rr)
    )
    assert rr_estimate == pytest.approx(exact, abs=4 * rr_se + 1e-9)


def test_batched_singleton_spreads_agree_with_exact():
    graph = from_edge_list(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5), (1, 5)], num_nodes=6
    )
    probabilities = _probabilities(IndependentCascadeModel, graph)
    nodes = [0, 2, 5]
    count = 4000
    batched = batched_singleton_spreads(
        graph, probabilities, num_simulations=count, rng=53, nodes=nodes
    )
    for index, node in enumerate(nodes):
        exact = exact_spread(graph, probabilities, [node])
        # Cascade sizes are bounded by n = 6, so n/2 over-covers their std.
        band = 4 * (graph.num_nodes / 2) / np.sqrt(count)
        assert batched[index] == pytest.approx(exact, abs=band)


def test_monte_carlo_oracle_batched_policy_is_statistically_equivalent():
    graph = from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)])
    model = IndependentCascadeModel(graph, probability=0.5)
    advertisers = [Advertiser(budget=10.0, cpe=2.0)]
    costs = np.full((1, graph.num_nodes), 1.0)
    instance = RMInstance(graph, model, advertisers, costs)
    sequential = MonteCarloOracle(
        instance, num_simulations=6000, seed=3, policy=ExecutionPolicy.seed()
    )
    batched = MonteCarloOracle(
        instance, num_simulations=6000, seed=3, policy=ExecutionPolicy(mc_engine="batched")
    )
    exact = 2.0 * exact_spread(graph, model.edge_probabilities(), [0])
    assert sequential.revenue(0, [0]) == pytest.approx(exact, rel=0.05)
    assert batched.revenue(0, [0]) == pytest.approx(exact, rel=0.05)


def test_monte_carlo_oracle_seed_policy_reproduces_seed_stream():
    """Under the seed policy, the oracle's first query must equal the legacy
    estimator driven from the same seed — the seed-compatibility contract."""
    graph = from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)])
    model = IndependentCascadeModel(graph, probability=0.5)
    advertisers = [Advertiser(budget=10.0, cpe=2.0)]
    costs = np.full((1, graph.num_nodes), 1.0)
    instance = RMInstance(graph, model, advertisers, costs)
    oracle = MonteCarloOracle(
        instance, num_simulations=400, seed=9, policy=ExecutionPolicy.seed()
    )
    expected = 2.0 * legacy_monte_carlo_spread(
        graph,
        np.asarray(model.edge_probabilities()),
        [0, 1],
        400,
        rng=np.random.default_rng(9),
    )
    assert oracle.revenue(0, [0, 1]) == expected


# --------------------------------------------------------------------------- #
# 3. batched-engine API behaviour
# --------------------------------------------------------------------------- #
def test_simulate_cascades_batch_shape_and_seed_rows(micro_graph):
    probabilities = _probabilities(WeightedCascadeModel, micro_graph)
    bitmap = simulate_cascades_batch(
        micro_graph, probabilities, [2, 8], num_cascades=17, rng=7
    )
    assert bitmap.shape == (17, micro_graph.num_nodes)
    assert bitmap.dtype == np.bool_
    assert bitmap[:, [2, 8]].all()


def test_simulate_cascades_batch_empty_seeds_all_inactive(micro_graph):
    probabilities = _probabilities(WeightedCascadeModel, micro_graph)
    bitmap = simulate_cascades_batch(micro_graph, probabilities, [], num_cascades=3, rng=0)
    assert not bitmap.any()


def test_batched_engine_input_validation(micro_graph):
    probabilities = _probabilities(WeightedCascadeModel, micro_graph)
    with pytest.raises(DiffusionError):
        simulate_cascades_batch(micro_graph, probabilities, [0], num_cascades=0)
    with pytest.raises(DiffusionError):
        simulate_cascades_batch(micro_graph, probabilities, [999], num_cascades=1)
    with pytest.raises(DiffusionError):
        batched_monte_carlo_spread(micro_graph, probabilities, [0], num_simulations=0)
    with pytest.raises(DiffusionError):
        batched_monte_carlo_spread(
            micro_graph, probabilities, [0], num_simulations=10, batch_size=0
        )
    with pytest.raises(DiffusionError):
        simulate_cascades_batch(micro_graph, np.ones(3), [0], num_cascades=1)


def test_batched_monte_carlo_spread_empty_seeds_zero(micro_graph):
    probabilities = _probabilities(WeightedCascadeModel, micro_graph)
    assert batched_monte_carlo_spread(micro_graph, probabilities, [], 10) == 0.0


def test_batch_size_chunking_preserves_the_estimate(micro_graph):
    """Chunked and single-batch runs agree statistically (different streams)."""
    probabilities = _probabilities(IndependentCascadeModel, micro_graph)
    whole = batched_monte_carlo_spread(
        micro_graph, probabilities, [0, 1], 3000, rng=61, batch_size=3000
    )
    chunked = batched_monte_carlo_spread(
        micro_graph, probabilities, [0, 1], 3000, rng=67, batch_size=7
    )
    sizes = _batched_sizes(micro_graph, probabilities, [0, 1], 1000, seed=71)
    se = float(np.sqrt(sizes.var() / 3000))
    assert whole == pytest.approx(chunked, abs=6 * se + 1e-9)


def test_default_batch_size_respects_memory_cap():
    assert default_batch_size(20_000, 10_000) * 20_000 <= 32 * 1024 * 1024
    assert default_batch_size(10, 3) == 3
    assert default_batch_size(10, 0) == 1


def test_disconnected_cascades_stay_in_their_component():
    """Two disjoint components: cascades must never leak across them."""
    graph = from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5)], num_nodes=6)
    bitmap = simulate_cascades_batch(
        graph, np.ones(graph.num_edges), [0], num_cascades=50, rng=13
    )
    assert bitmap[:, :3].all()
    assert not bitmap[:, 3:].any()


# --------------------------------------------------------------------------- #
# 4. exact_spread enumeration pin (satellite)
# --------------------------------------------------------------------------- #
EXACT_PIN_CASES = [
    ([(0, 1), (1, 2), (2, 3)], 4, [0], 0.5),
    ([(0, 1), (0, 2), (1, 3), (2, 3)], 4, [0], 0.3),
    ([(0, 1), (0, 2), (1, 3), (2, 3)], 4, [1, 2], 0.7),
    ([(0, 1), (1, 0), (1, 2), (2, 0)], 3, [0], 0.4),  # cyclic
    ([(0, 1), (2, 3), (3, 4)], 5, [0], 0.6),  # seed sees 1 of 3 edges
]


@pytest.mark.parametrize("edges,num_nodes,seeds,probability", EXACT_PIN_CASES)
def test_restricted_enumeration_matches_legacy_full_enumeration(
    edges, num_nodes, seeds, probability
):
    graph = from_edge_list(edges, num_nodes=num_nodes)
    probabilities = np.full(graph.num_edges, probability)
    assert exact_spread(graph, probabilities, seeds) == pytest.approx(
        legacy_exact_spread(graph, probabilities, seeds), abs=1e-12
    )


def test_restricted_enumeration_matches_legacy_on_heterogeneous_probs():
    graph = from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], num_nodes=5)
    probabilities = np.array([0.9, 0.1, 0.5, 1.0, 0.0])
    for seeds in ([0], [1], [0, 2], [4]):
        assert exact_spread(graph, probabilities, seeds) == pytest.approx(
            legacy_exact_spread(graph, probabilities, seeds), abs=1e-12
        )


def test_restricted_enumeration_handles_graphs_the_full_one_cannot():
    """A long chain hanging off node 2 is unreachable from node 0: the new
    enumeration only sums over the reachable edge, the legacy one refuses."""
    edges = [(0, 1)] + [(i, i + 1) for i in range(2, 30)]
    graph = from_edge_list(edges, num_nodes=31)
    probabilities = np.full(graph.num_edges, 0.5)
    with pytest.raises(DiffusionError):
        legacy_exact_spread(graph, probabilities, [0])
    assert exact_spread(graph, probabilities, [0]) == pytest.approx(1.5)


def test_restricted_enumeration_still_bounds_reachable_edges():
    edges = [(i, i + 1) for i in range(25)]
    graph = from_edge_list(edges)
    probabilities = np.full(graph.num_edges, 0.5)
    with pytest.raises(DiffusionError):
        exact_spread(graph, probabilities, [0])
    # From the chain's tail only 5 edges are reachable: feasible now.
    assert exact_spread(graph, probabilities, [20]) == pytest.approx(
        sum(0.5 ** k for k in range(6))
    )


def test_restricted_enumeration_seeds_with_no_reachable_edges():
    graph = from_edge_list([(0, 1)], num_nodes=3)
    probabilities = np.full(graph.num_edges, 0.8)
    assert exact_spread(graph, probabilities, [1, 2]) == pytest.approx(2.0)
