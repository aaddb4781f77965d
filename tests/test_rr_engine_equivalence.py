"""Legacy-vs-vectorized equivalence proofs for the CSR RR-set engine.

The vectorized engine (:mod:`repro.rrsets.generator`, `.collection`) claims
bit-identical behaviour with the seed implementation preserved in
``tests/reference/rrsets_legacy.py`` when driven from the same RNG seed.  These tests
pin that claim across propagation models (IC / WC / Trivalency), both
generators, the tagged collection, the coverage state and the RR-set oracle.
"""

import numpy as np
import pytest

from repro.advertising.oracle import RRSetOracle
from repro.diffusion.models import (
    IndependentCascadeModel,
    TrivalencyModel,
    WeightedCascadeModel,
)
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import CoverageState, RRCollection
from repro.rrsets.generator import RRSetGenerator, SubsimRRGenerator
from reference.rrsets_legacy import (
    LegacyCoverageState,
    LegacyRRCollection,
    LegacyRRSetGenerator,
    LegacySubsimRRGenerator,
)

MODELS = [IndependentCascadeModel, WeightedCascadeModel, TrivalencyModel]
GENERATOR_PAIRS = [
    (RRSetGenerator, LegacyRRSetGenerator),
    (SubsimRRGenerator, LegacySubsimRRGenerator),
]


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_digraph(250, out_degree=4, seed=1)


def _probabilities(model_cls, graph):
    return np.asarray(model_cls(graph).edge_probabilities(), dtype=np.float64)


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize(
    "generator_cls,legacy_cls", GENERATOR_PAIRS, ids=["standard", "subsim"]
)
@pytest.mark.parametrize("seed", [7, 11, 42])
def test_rr_sets_bit_identical(graph, model_cls, generator_cls, legacy_cls, seed):
    """Same seed ⇒ identical RR-set membership, set by set."""
    probabilities = _probabilities(model_cls, graph)
    vectorized = generator_cls(graph, probabilities).generate_many(300, rng=seed)
    legacy = legacy_cls(graph, probabilities).generate_many(300, rng=seed)
    assert len(vectorized) == len(legacy)
    for new_set, old_set in zip(vectorized, legacy):
        assert np.array_equal(new_set, np.sort(old_set))


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
def test_standard_edges_examined_matches_legacy(graph, model_cls):
    """The standard generator's cost counter is unchanged by vectorization."""
    probabilities = _probabilities(model_cls, graph)
    vectorized = RRSetGenerator(graph, probabilities)
    legacy = LegacyRRSetGenerator(graph, probabilities)
    vectorized.generate_many(200, rng=5)
    legacy.generate_many(200, rng=5)
    assert vectorized.edges_examined == legacy.edges_examined


def _paired_collections(graph, seed=3, count=400, num_advertisers=3):
    probabilities = _probabilities(WeightedCascadeModel, graph)
    rr_sets = RRSetGenerator(graph, probabilities).generate_many(count, rng=seed)
    tags = np.random.default_rng(seed).integers(0, num_advertisers, size=count)
    new = RRCollection(graph.num_nodes, num_advertisers)
    old = LegacyRRCollection(graph.num_nodes, num_advertisers)
    for rr_set, tag in zip(rr_sets, tags):
        new.add(rr_set, int(tag))
        old.add(rr_set, int(tag))
    return new, old


def test_collection_inverted_index_matches_legacy(graph):
    new, old = _paired_collections(graph)
    assert new.count_per_advertiser().tolist() == old.count_per_advertiser().tolist()
    assert new.tags().tolist() == old.tags().tolist()
    for advertiser in range(new.num_advertisers):
        for node in range(graph.num_nodes):
            assert new.sets_containing(advertiser, node) == old.sets_containing(
                advertiser, node
            )


def test_collection_out_of_range_queries_return_empty(graph):
    """Legacy parity: unknown (advertiser, node) keys answer empty, not garbage."""
    new, old = _paired_collections(graph)
    for advertiser, node in [(0, -1), (0, graph.num_nodes), (new.num_advertisers, 0)]:
        assert new.sets_containing(advertiser, node) == []
        assert old.sets_containing(advertiser, node) == []
    assert new.coverage_count(0, [-1, graph.num_nodes]) == 0


def test_add_copies_presorted_input(graph):
    """The sorted fast path must not alias the caller's buffer."""
    collection = RRCollection(graph.num_nodes, 1)
    buffer = np.array([0, 1], dtype=np.int64)
    collection.add(buffer, 0)
    buffer[1] = 99
    assert collection.rr_set(0).tolist() == [0, 1]
    assert collection.sets_containing(0, 1) == [0]


def test_collection_index_rebuilds_after_append(graph):
    """The lazy CSR must invalidate when the collection grows."""
    new, old = _paired_collections(graph, count=150)
    # Query once to force the CSR build, then grow both collections.
    assert new.sets_containing(0, 0) == old.sets_containing(0, 0)
    probabilities = _probabilities(WeightedCascadeModel, graph)
    extra = RRSetGenerator(graph, probabilities).generate_many(80, rng=99)
    for rr_set in extra:
        new.add(rr_set, 1)
        old.add(rr_set, 1)
    for node in range(0, graph.num_nodes, 5):
        assert new.sets_containing(1, node) == old.sets_containing(1, node)


def test_coverage_state_marginals_match_legacy(graph):
    new, old = _paired_collections(graph)
    new_state, old_state = CoverageState(new), LegacyCoverageState(old)
    rng = np.random.default_rng(17)
    for step, node in enumerate(rng.permutation(graph.num_nodes)[:80].tolist()):
        advertiser = step % new.num_advertisers
        assert new_state.add_seed(advertiser, node) == old_state.add_seed(
            advertiser, node
        )
    assert new_state.covered_count == old_state.covered_count
    for advertiser in range(new.num_advertisers):
        assert new_state.covered_count_for(advertiser) == old_state.covered_count_for(
            advertiser
        )
        for node in range(graph.num_nodes):
            assert new_state.marginal_coverage(
                advertiser, node
            ) == old_state.marginal_coverage(advertiser, node)


def test_oracle_revenue_matches_legacy_counts(graph):
    """π̃ from the array-backed oracle equals the legacy covered-set counts."""
    new, old = _paired_collections(graph)
    gamma = 2.5
    oracle = RRSetOracle(new, gamma)
    scale = graph.num_nodes * gamma / len(new)
    rng = np.random.default_rng(23)
    for advertiser in range(new.num_advertisers):
        seeds: list[int] = []
        for node in rng.permutation(graph.num_nodes)[:12].tolist():
            marginal = oracle.marginal_revenue(advertiser, node, seeds)
            expected_covered = old.coverage_count(advertiser, seeds + [node])
            base_covered = old.coverage_count(advertiser, seeds)
            assert marginal == pytest.approx(
                scale * (expected_covered - base_covered)
            )
            seeds.append(node)
            assert oracle.revenue(advertiser, seeds) == pytest.approx(
                scale * expected_covered
            )


def test_subsim_edges_examined_counts_only_touched_edges():
    """Satellite fix: the geometric path must not count the overshooting skip.

    On a star graph (all in-edges on one hub, leaves have no in-edges) every
    edge the generator touches is a successful in-edge of the hub, so the
    counter must equal the RR-set size minus the root — the legacy engine
    over-counted by one per geometric visit.
    """
    from repro.graph.builders import from_edge_list

    hub = 0
    leaves = list(range(1, 41))
    graph = from_edge_list([(leaf, hub) for leaf in leaves], num_nodes=41)
    probabilities = np.full(graph.num_edges, 0.3)
    generator = SubsimRRGenerator(graph, probabilities)
    total_successes = 0
    for seed in range(25):
        rr_set = generator.generate(rng=seed, root=hub)
        total_successes += rr_set.size - 1
    assert generator.edges_examined == total_successes
    # The legacy engine counts one extra edge per geometric visit.
    legacy = LegacySubsimRRGenerator(graph, probabilities)
    for seed in range(25):
        legacy.generate(rng=seed, root=hub)
    assert legacy.edges_examined == total_successes + 25


def test_subsim_edges_examined_hub_uniform_block_path():
    """The overshoot fix must hold on the hub-node uniform-probability *block*
    path too, not just the scalar geometric-skip path.

    A dense uniform hub (64 in-edges, p = 0.9) yields far more than 8
    successes per visit, so the generator takes the vectorised block gather
    (``sources[start + positions]``) instead of the ≤8-success scalar loop
    the star-graph test above exercises.  The counter must still report only
    the touched (successful) edges, while the legacy engine over-counts the
    final overshooting skip once per visit.
    """
    from repro.graph.builders import from_edge_list

    hub = 0
    num_leaves = 64
    graph = from_edge_list(
        [(leaf, hub) for leaf in range(1, num_leaves + 1)], num_nodes=num_leaves + 1
    )
    probabilities = np.full(graph.num_edges, 0.9)
    generator = SubsimRRGenerator(graph, probabilities)
    visits = 25
    total_successes = 0
    for seed in range(visits):
        rr_set = generator.generate(rng=seed, root=hub)
        successes = rr_set.size - 1
        # Pin that every visit really took the block path (scalar cap is 8).
        assert successes > 8
        total_successes += successes
    assert generator.edges_examined == total_successes
    legacy = LegacySubsimRRGenerator(graph, probabilities)
    for seed in range(visits):
        legacy.generate(rng=seed, root=hub)
    assert legacy.edges_examined == total_successes + visits


def test_subsim_edges_examined_saturated_uniform_block():
    """p = 1 uniform hub: the whole in-block is taken without geometric draws,
    and both engines must count exactly the block's degree (no overshoot)."""
    from repro.graph.builders import from_edge_list

    hub = 0
    graph = from_edge_list([(leaf, hub) for leaf in range(1, 33)], num_nodes=33)
    probabilities = np.ones(graph.num_edges)
    generator = SubsimRRGenerator(graph, probabilities)
    rr_set = generator.generate(rng=0, root=hub)
    assert rr_set.size == graph.num_nodes
    assert generator.edges_examined == graph.num_edges
    legacy = LegacySubsimRRGenerator(graph, probabilities)
    legacy.generate(rng=0, root=hub)
    assert legacy.edges_examined == graph.num_edges


def test_generate_batch_matches_sequential_generate(graph):
    probabilities = _probabilities(WeightedCascadeModel, graph)
    batch = RRSetGenerator(graph, probabilities).generate_batch(50, rng=13)
    sequential_rng = np.random.default_rng(13)
    sequential_gen = RRSetGenerator(graph, probabilities)
    sequential = [sequential_gen.generate(sequential_rng) for _ in range(50)]
    for batched_set, sequential_set in zip(batch, sequential):
        assert np.array_equal(batched_set, sequential_set)
