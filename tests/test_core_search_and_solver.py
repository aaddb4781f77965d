"""Tests for Search (Algorithm 4), RM_with_Oracle (Algorithm 5) and SeekUB (Algorithm 7)."""

import itertools

import numpy as np
import pytest

from repro.advertising.advertiser import Advertiser
from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import ExactOracle
from repro.core.oracle_solver import approximation_ratio, rm_with_oracle
from repro.core.result import SearchByproducts
from repro.core.search import gamma_max, search_threshold
from repro.core.seek_ub import seek_upper_bound
from repro.diffusion.models import IndependentCascadeModel
from repro.exceptions import SolverError
from repro.graph.builders import from_edge_list


def brute_force_optimum(instance, oracle):
    """Exhaustive optimum over all feasible allocations (tiny instances only)."""
    nodes = list(range(instance.num_nodes))
    h = instance.num_advertisers
    best = 0.0
    # Each node is assigned to one advertiser or left out: (h+1)^n options.
    for assignment in itertools.product(range(h + 1), repeat=len(nodes)):
        seed_sets = {i: set() for i in range(h)}
        for node, owner in zip(nodes, assignment):
            if owner < h:
                seed_sets[owner].add(node)
        feasible = True
        total = 0.0
        for advertiser, seeds in seed_sets.items():
            revenue = oracle.revenue(advertiser, seeds) if seeds else 0.0
            cost = instance.cost_of_set(advertiser, seeds)
            if cost + revenue > instance.budget(advertiser) + 1e-9:
                feasible = False
                break
            total += revenue
        if feasible and total > best:
            best = total
    return best


class TestApproximationRatio:
    def test_single_advertiser(self):
        assert approximation_ratio(1, 0.1) == pytest.approx(1 / 3)

    def test_two_advertisers(self):
        assert approximation_ratio(2, 0.1) == pytest.approx(1 / (2 * 3 * 1.1))

    def test_three_advertisers(self):
        assert approximation_ratio(3, 0.1) == pytest.approx(1 / (2 * 4 * 1.1))

    def test_four_advertisers(self):
        assert approximation_ratio(4, 0.1) == pytest.approx(1 / (10 * 1.1))

    def test_many_advertisers_decreasing(self):
        ratios = [approximation_ratio(h, 0.1) for h in range(4, 12)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_smaller_tau_improves_ratio(self):
        assert approximation_ratio(5, 0.05) > approximation_ratio(5, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(SolverError):
            approximation_ratio(0, 0.1)
        with pytest.raises(SolverError):
            approximation_ratio(2, 1.5)


class TestGammaMax:
    def test_positive_on_nontrivial_instance(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        assert gamma_max(probabilistic_instance, oracle) > 0.0

    def test_formula_on_hand_instance(self, tiny_instance, tiny_exact_oracle):
        value = gamma_max(tiny_instance, tiny_exact_oracle)
        expected = 0.0
        for advertiser in range(tiny_instance.num_advertisers):
            for node in range(tiny_instance.num_nodes):
                revenue = tiny_exact_oracle.revenue(advertiser, {node})
                rate = revenue / (tiny_instance.cost(advertiser, node) + revenue)
                expected = max(expected, tiny_instance.budget(advertiser) * rate)
        assert value == pytest.approx(expected)


class TestSearch:
    def test_returns_best_of_tried_solutions(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        allocation, revenue, byproducts, diagnostics = search_threshold(
            probabilistic_instance, oracle, tau=0.2, b_min=1
        )
        assert revenue == pytest.approx(oracle.total_revenue(allocation))
        assert diagnostics["search_iterations"] >= 1

    def test_boundary_solutions_consistent(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        _, _, byproducts, _ = search_threshold(probabilistic_instance, oracle, tau=0.2, b_min=1)
        assert byproducts.gamma_low <= byproducts.gamma_high + 1e-12
        # search_threshold files each ThresholdGreedy run by how many
        # budgets it depleted: at least b_min → low side, fewer → high side.
        if byproducts.allocation_low is not None:
            assert byproducts.b_low >= byproducts.b_min
        if byproducts.allocation_high is not None:
            assert byproducts.b_high < byproducts.b_min

    def test_invalid_parameters(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        with pytest.raises(SolverError):
            search_threshold(probabilistic_instance, oracle, tau=0.0, b_min=1)
        with pytest.raises(SolverError):
            search_threshold(probabilistic_instance, oracle, tau=0.1, b_min=3)

    def test_terminates_within_iteration_cap(self, topic_instance):
        oracle = ExactOracle(topic_instance)
        _, _, _, diagnostics = search_threshold(
            topic_instance, oracle, tau=0.1, b_min=1, max_iterations=10
        )
        assert diagnostics["search_iterations"] <= 10


class TestRMWithOracle:
    def test_single_advertiser_dispatch(self, single_advertiser_instance):
        oracle = ExactOracle(single_advertiser_instance)
        result = rm_with_oracle(single_advertiser_instance, oracle, tau=0.1)
        assert result.algorithm == "RM_with_Oracle"
        assert result.search is None
        assert result.metadata["lambda"] == pytest.approx(1 / 3)

    def test_multi_advertiser_produces_byproducts(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        result = rm_with_oracle(probabilistic_instance, oracle, tau=0.1)
        assert isinstance(result.search, SearchByproducts)
        assert result.metadata["b_min"] == 1

    def test_meets_theoretical_ratio_against_brute_force(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        result = rm_with_oracle(probabilistic_instance, oracle, tau=0.1)
        optimum = brute_force_optimum(probabilistic_instance, oracle)
        lam = approximation_ratio(probabilistic_instance.num_advertisers, 0.1)
        assert result.revenue >= lam * optimum - 1e-9

    def test_ratio_on_random_two_advertiser_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(4):
            graph = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)], num_nodes=5)
            probs = rng.uniform(0.1, 0.9, graph.num_edges)
            model = IndependentCascadeModel(graph, probs)
            advertisers = [
                Advertiser(budget=float(rng.uniform(4, 9)), cpe=1.0),
                Advertiser(budget=float(rng.uniform(4, 9)), cpe=float(rng.choice([1.0, 2.0]))),
            ]
            costs = rng.uniform(0.5, 2.0, size=(2, 5))
            instance = RMInstance(graph, model, advertisers, costs)
            oracle = ExactOracle(instance)
            result = rm_with_oracle(instance, oracle, tau=0.1)
            optimum = brute_force_optimum(instance, oracle)
            lam = approximation_ratio(2, 0.1)
            assert result.revenue >= lam * optimum - 1e-9, f"trial {trial}"

    def test_allocation_is_partition(self, topic_instance):
        oracle = ExactOracle(topic_instance)
        result = rm_with_oracle(topic_instance, oracle, tau=0.1)
        nodes = [node for _, seeds in result.allocation.items() for node in seeds]
        assert len(nodes) == len(set(nodes))

    def test_budget_override_respected(self, probabilistic_instance):
        oracle = ExactOracle(probabilistic_instance)
        result = rm_with_oracle(
            probabilistic_instance, oracle, tau=0.1, budgets=np.array([2.0, 2.0])
        )
        for advertiser, seeds in result.allocation.items():
            if len(seeds) > 1:
                spend = probabilistic_instance.cost_of_set(advertiser, seeds) + oracle.revenue(
                    advertiser, seeds
                )
                assert spend <= 2.0 + 1e-9

    def test_mismatched_oracle_rejected(self, probabilistic_instance, single_advertiser_instance):
        oracle = ExactOracle(single_advertiser_instance)
        with pytest.raises(SolverError):
            rm_with_oracle(probabilistic_instance, oracle)


class TestSeekUpperBound:
    def test_single_advertiser_trivial_bound(self):
        bound = seek_upper_bound(9.0, None, num_advertisers=1, lam=1 / 3, revenue_of=lambda a: 0.0)
        assert bound == pytest.approx(27.0)

    def test_never_exceeds_trivial_bound(self):
        byproducts = SearchByproducts(
            allocation_low=Allocation(2),
            b_low=2,
            gamma_low=1.0,
            allocation_high=Allocation(2),
            b_high=0,
            gamma_high=2.0,
            b_min=2,
        )
        bound = seek_upper_bound(
            10.0, byproducts, num_advertisers=2, lam=0.1, revenue_of=lambda a: 4.0
        )
        assert bound <= 10.0 / 0.1 + 1e-9

    def test_case_b_low_below_bmin(self):
        byproducts = SearchByproducts(
            allocation_low=None,
            b_low=0,
            allocation_high=Allocation(2),
            b_high=0,
            gamma_high=0.0,
            b_min=2,
        )
        bound = seek_upper_bound(
            100.0, byproducts, num_advertisers=2, lam=0.1, revenue_of=lambda a: 5.0
        )
        assert bound == pytest.approx(30.0)

    def test_case_b_high_zero(self):
        byproducts = SearchByproducts(
            allocation_low=Allocation(2),
            b_low=2,
            gamma_low=1.0,
            allocation_high=Allocation(2),
            b_high=0,
            gamma_high=3.0,
            b_min=2,
        )
        bound = seek_upper_bound(
            1000.0, byproducts, num_advertisers=2, lam=0.1, revenue_of=lambda a: 5.0
        )
        assert bound == pytest.approx(2 * 5.0 + 2 * 3.0)

    def test_case_b_high_one(self):
        byproducts = SearchByproducts(
            allocation_low=Allocation(3),
            b_low=2,
            gamma_low=1.0,
            allocation_high=Allocation(3),
            b_high=1,
            gamma_high=3.0,
            b_min=2,
        )
        bound = seek_upper_bound(
            1000.0, byproducts, num_advertisers=3, lam=0.05, revenue_of=lambda a: 5.0
        )
        assert bound == pytest.approx(6 * 5.0 + 3 * 3.0)

    def test_case_no_high_solution(self):
        byproducts = SearchByproducts(
            allocation_low=Allocation(2),
            b_low=2,
            gamma_low=1.0,
            allocation_high=None,
            b_high=0,
            gamma_high=5.0,
            b_min=2,
        )
        bound = seek_upper_bound(
            1000.0, byproducts, num_advertisers=2, lam=0.2, revenue_of=lambda a: 8.0
        )
        assert bound == pytest.approx(8.0 / 0.2)

    def test_invalid_lambda(self):
        with pytest.raises(SolverError):
            seek_upper_bound(1.0, None, 1, lam=0.0, revenue_of=lambda a: 0.0)

    def test_bound_is_valid_on_real_instance(self, probabilistic_instance):
        """The SeekUB value must upper-bound the brute-force optimum."""
        oracle = ExactOracle(probabilistic_instance)
        result = rm_with_oracle(probabilistic_instance, oracle, tau=0.1)
        lam = approximation_ratio(probabilistic_instance.num_advertisers, 0.1)
        bound = seek_upper_bound(
            result.revenue,
            result.search,
            probabilistic_instance.num_advertisers,
            lam,
            revenue_of=oracle.total_revenue,
        )
        optimum = brute_force_optimum(probabilistic_instance, oracle)
        assert bound >= optimum - 1e-9
