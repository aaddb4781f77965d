"""Evaluation metrics.

The paper measures the revenue of every algorithm's allocation with a large
pool of RR-sets generated *independently* of the algorithms (Section 5.1).
:func:`independent_evaluator` builds such a pool once per instance and
:func:`evaluate_allocation` reports revenue, seeding cost, budget usage and
rate of return against it, which is exactly what Figures 1-10 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RRSetOracle
from repro.exceptions import ExperimentError
from repro.rrsets.uniform import UniformRRSampler
from repro.utils.rng import RandomSource, as_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime


@dataclass
class EvaluationResult:
    """Independent evaluation of one allocation."""

    revenue: float
    seeding_cost: float
    total_seeds: int
    per_advertiser_revenue: Dict[int, float] = field(default_factory=dict)
    per_advertiser_cost: Dict[int, float] = field(default_factory=dict)
    budget_usage: float = 0.0
    rate_of_return: float = 0.0

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabular reporting."""
        return {
            "revenue": self.revenue,
            "seeding_cost": self.seeding_cost,
            "total_seeds": self.total_seeds,
            "budget_usage": self.budget_usage,
            "rate_of_return": self.rate_of_return,
        }


def independent_evaluator(
    instance: RMInstance,
    num_rr_sets: int = 20000,
    seed: RandomSource = None,
    policy: Optional["ExecutionPolicy"] = None,
    runtime: Optional["Runtime"] = None,
) -> RRSetOracle:
    """Build an RR-set oracle independent of any solver, for fair evaluation.

    The paper uses ``10^7`` RR-sets; the default here is sized for the
    scaled-down synthetic networks and can be raised by callers that want
    tighter estimates.

    ``policy`` selects the sampler's RR engine and sharding (``None``
    resolves to :meth:`repro.runtime.ExecutionPolicy.fast`); ``runtime``
    supplies the persistent worker pool for the sharded path (falling back
    to the ambient :func:`repro.runtime.current_runtime`, then to a pool of
    the call's own).
    """
    if num_rr_sets <= 0:
        raise ExperimentError("num_rr_sets must be positive")
    rng = as_rng(seed)
    sampler = UniformRRSampler(
        instance.graph,
        instance.all_edge_probabilities(),
        instance.cpes(),
        seed=rng,
        policy=policy,
        runtime=runtime,
    )
    collection = sampler.generate_collection(num_rr_sets)
    return RRSetOracle(collection, instance.gamma)


def budget_usage(
    instance: RMInstance, revenue: float, seeding_cost: float
) -> float:
    """``(π(S⃗) + Σ_i c_i(S_i)) / Σ_i B_i`` — the actual budget usage rate (Fig. 6a)."""
    total_budget = float(instance.budgets().sum())
    if total_budget <= 0:
        raise ExperimentError("total budget must be positive")
    return (revenue + seeding_cost) / total_budget


def rate_of_return(revenue: float, seeding_cost: float) -> float:
    """``π(S⃗) / (π(S⃗) + Σ_i c_i(S_i))`` — the host's rate of return (Fig. 6b)."""
    total = revenue + seeding_cost
    if total <= 0:
        return 0.0
    return revenue / total


def evaluate_allocation(
    instance: RMInstance,
    allocation: Allocation,
    evaluator: Optional[RRSetOracle] = None,
    num_rr_sets: int = 20000,
    seed: RandomSource = None,
    policy: Optional["ExecutionPolicy"] = None,
    runtime: Optional["Runtime"] = None,
) -> EvaluationResult:
    """Evaluate an allocation with an independent RR-set oracle.

    ``policy`` / ``runtime`` configure the auto-built evaluator exactly as
    in :func:`independent_evaluator`; both are ignored when an explicit
    ``evaluator`` is passed.
    """
    oracle = evaluator if evaluator is not None else independent_evaluator(
        instance, num_rr_sets=num_rr_sets, seed=seed, policy=policy, runtime=runtime
    )
    per_revenue: Dict[int, float] = {}
    per_cost: Dict[int, float] = {}
    for advertiser, seeds in allocation.items():
        per_revenue[advertiser] = oracle.revenue(advertiser, seeds) if seeds else 0.0
        per_cost[advertiser] = instance.cost_of_set(advertiser, seeds)
    revenue = float(np.sum(list(per_revenue.values()))) if per_revenue else 0.0
    seeding_cost = float(np.sum(list(per_cost.values()))) if per_cost else 0.0
    return EvaluationResult(
        revenue=revenue,
        seeding_cost=seeding_cost,
        total_seeds=allocation.total_seed_count(),
        per_advertiser_revenue=per_revenue,
        per_advertiser_cost=per_cost,
        budget_usage=budget_usage(instance, revenue, seeding_cost),
        rate_of_return=rate_of_return(revenue, seeding_cost),
    )
