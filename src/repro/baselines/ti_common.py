"""Shared machinery of the TI-CARM and TI-CSRM baselines.

Both algorithms follow the same recipe (Aslay et al. [5]):

1. per advertiser, size an RR-set pool with TIM (``1/ε²`` dependence),
2. greedily allocate ``(node, advertiser)`` elements using estimates from the
   per-advertiser pools — ranked by marginal gain (CARM) or marginal rate
   (CSRM),
3. enforce budget feasibility *conservatively*: the estimated revenue is
   inflated by a concentration-bound penalty before being compared against
   the budget, so the allocation never relies on a lucky under-estimate.
   This is exactly the design decision that makes the baselines under-utilise
   budgets (Section 2.2.1, limitation (iv)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.baselines.tim import (
    estimate_kpt,
    estimate_max_seed_count,
    pilot_pool,
    tim_sample_size,
)
from repro.core.batched_greedy import PerAdvertiserCoverageEngine
from repro.core.result import SolverResult
from repro.exceptions import SolverError
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator, SubsimRRGenerator
from repro.runtime import ExecutionPolicy, Runtime, current_runtime, resolve_policy
from repro.utils.rng import RandomSource, as_rng


@dataclass
class TIParameters:
    """Parameters of the TI-CARM / TI-CSRM baselines.

    ``epsilon`` is the ε of Eq. (5) in the paper — the additive estimation
    error the baselines tolerate; their pool sizes scale as ``1/ε²``.
    ``max_rr_sets_per_advertiser`` caps the actually generated pools so that
    the pure-Python reproduction stays tractable; the uncapped theoretical
    requirement is always reported in the result metadata (it is what the
    Figure 4 memory comparison uses).

    ``policy`` is the configuration channel
    (:class:`repro.runtime.ExecutionPolicy`): ``rr_engine`` selects the pool
    generator and ``n_jobs`` shards the bulk pool fill across worker
    processes (the small pilot pools stay serial).  ``None`` defaults to
    :meth:`ExecutionPolicy.fast`; pass :meth:`ExecutionPolicy.seed` for the
    serial seed-stream reference path.  The allocation loop is the same
    under every policy (see :func:`_run_allocation`).
    """

    epsilon: float = 0.1
    delta: float = 0.01
    pilot_size: int = 256
    max_rr_sets_per_advertiser: int = 4096
    seed: RandomSource = None
    policy: Optional[ExecutionPolicy] = None

    def resolved_policy(self) -> ExecutionPolicy:
        """The effective :class:`ExecutionPolicy` (``None`` → ``fast``)."""
        return resolve_policy(self.policy)

    def validate(self) -> None:
        """Raise :class:`SolverError` on inconsistent settings."""
        if self.epsilon <= 0:
            raise SolverError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise SolverError("delta must lie in (0, 1)")
        if self.pilot_size <= 0:
            raise SolverError("pilot_size must be positive")
        if self.max_rr_sets_per_advertiser <= 0:
            raise SolverError("max_rr_sets_per_advertiser must be positive")


@dataclass
class _AdvertiserPool:
    """One advertiser's RR-set pool and its revenue per covered set."""

    rr_sets: List[np.ndarray]
    cpe: float
    scale: float


def _build_pools(
    instance: RMInstance,
    params: TIParameters,
    policy: ExecutionPolicy,
    rng,
    runtime: Optional[Runtime],
) -> tuple[Dict[int, _AdvertiserPool], Dict[str, object]]:
    generator_cls = SubsimRRGenerator if policy.rr_engine == "subsim" else RRSetGenerator
    pools: Dict[int, _AdvertiserPool] = {}
    required_total = 0
    generated_total = 0
    for advertiser in range(instance.num_advertisers):
        seed_count = estimate_max_seed_count(instance, advertiser)
        pilot = pilot_pool(instance, advertiser, size=params.pilot_size, rng=rng)
        kpt = estimate_kpt(pilot, instance.num_nodes, seed_count)
        required = tim_sample_size(
            instance.num_nodes, seed_count, kpt, params.epsilon, params.delta
        )
        required_total += required
        pool_size = min(required, params.max_rr_sets_per_advertiser)
        generator = generator_cls(
            instance.graph, instance.edge_probabilities(advertiser)
        )
        rr_sets = list(pilot)
        if pool_size > len(rr_sets):
            rr_sets.extend(
                generator.generate_batch_parallel(
                    pool_size - len(rr_sets), rng, n_jobs=policy.n_jobs, runtime=runtime
                )
            )
        else:
            rr_sets = rr_sets[:pool_size]
        generated_total += len(rr_sets)
        cpe = instance.cpe(advertiser)
        pools[advertiser] = _AdvertiserPool(
            rr_sets, cpe, cpe * instance.num_nodes / max(1, len(rr_sets))
        )
    diagnostics = {
        "required_rr_sets_total": required_total,
        "generated_rr_sets_total": generated_total,
        "memory_proxy_bytes": sum(
            sum(rr.size for rr in pool.rr_sets) * 8 for pool in pools.values()
        ),
        "required_memory_proxy_bytes": _required_memory_proxy(
            pools, required_total, generated_total
        ),
    }
    return pools, diagnostics


def _required_memory_proxy(
    pools: Dict[int, _AdvertiserPool], required_total: int, generated_total: int
) -> float:
    """Memory the baselines *would* need without the per-advertiser cap."""
    generated_bytes = sum(sum(rr.size for rr in pool.rr_sets) * 8 for pool in pools.values())
    if generated_total == 0:
        return 0.0
    return generated_bytes * (required_total / generated_total)


def _run_allocation(
    instance: RMInstance,
    pools: Dict[int, _AdvertiserPool],
    penalties: Dict[int, float],
    budgets: np.ndarray,
    cost_sensitive: bool,
) -> tuple[Allocation, np.ndarray, Dict[int, float]]:
    """The TI allocation loop, ranked by gain (CARM) or rate (CSRM).

    The per-advertiser pools are merged into one advertiser-tagged
    collection driven by a :class:`PerAdvertiserCoverageEngine` (the shared
    element encoding, rate transform and singleton-feasibility filter of the
    other greedy loops, with one revenue scale per pool).  Only the accept
    test is TI's own: it adds the advertiser's RR-size penalty to the
    projected revenue.  Returns the allocation, the closed-advertiser mask
    and the per-advertiser revenue estimates.
    """
    h = instance.num_advertisers
    n = instance.num_nodes
    # One bulk build: every pool's sets are sorted and duplicate-free, as
    # the generators return them.
    rr_sets = [rr_set for advertiser in range(h) for rr_set in pools[advertiser].rr_sets]
    sizes = np.array([rr_set.size for rr_set in rr_sets], dtype=np.int64)
    tags = np.repeat(np.arange(h), [len(pools[advertiser].rr_sets) for advertiser in range(h)])
    combined = RRCollection.from_shards(n, h, [(np.concatenate(rr_sets), sizes, tags)])
    scales = np.array([pools[i].scale for i in range(h)], dtype=np.float64)
    engine = PerAdvertiserCoverageEngine(instance, combined, scales)
    assigned = np.zeros(n, dtype=bool)
    closed = np.zeros(h, dtype=bool)

    def discarded(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        advertisers, nodes = np.divmod(keys, n)
        return closed[advertisers] | assigned[nodes] | (values <= 0.0)

    keys = engine.feasible_element_keys(budgets)
    heap = engine.selector(keys, by_rate=cost_sensitive, prune=discarded)

    allocation = Allocation(h)
    cost = {i: 0.0 for i in range(h)}
    while not closed.all() and (best := heap.pop_best()) is not None:
        key, value = best
        advertiser, node = divmod(key, n)
        if closed[advertiser] or assigned[node] or value <= 0.0:
            continue
        gain = engine.gain(advertiser, node)
        node_cost = instance.cost(advertiser, node)
        projected_revenue = engine.revenue_for(advertiser) + gain + penalties[advertiser]
        if cost[advertiser] + node_cost + projected_revenue <= budgets[advertiser]:
            allocation.assign(node, advertiser)
            assigned[node] = True
            engine.add_seed(advertiser, node)
            cost[advertiser] += node_cost
            heap.advance_round()
        else:
            closed[advertiser] = True

    per_advertiser = {advertiser: engine.revenue_for(advertiser) for advertiser in range(h)}
    return allocation, closed, per_advertiser


def run_ti_baseline(
    instance: RMInstance,
    params: Optional[TIParameters],
    cost_sensitive: bool,
    algorithm_name: str,
    runtime: Optional[Runtime] = None,
) -> SolverResult:
    """Common driver for TI-CARM (``cost_sensitive=False``) and TI-CSRM (True).

    ``runtime`` (or the ambient one) supplies a persistent worker pool for
    the sharded pool fills; when neither exists and the policy shards, the
    driver opens its own runtime for the duration of the call so all ``h``
    fills share one pool.
    """
    params = params or TIParameters()
    params.validate()
    policy = params.resolved_policy()
    rng = as_rng(params.seed)
    owned_runtime: Optional[Runtime] = None
    if runtime is None:
        runtime = current_runtime()
        if runtime is None:
            runtime = owned_runtime = Runtime(policy)
    try:
        pools, diagnostics = _build_pools(instance, params, policy, rng, runtime)
    finally:
        if owned_runtime is not None:
            owned_runtime.close()

    h = instance.num_advertisers
    budgets = instance.budgets()

    # Conservative upper-confidence penalty added to the revenue estimate when
    # checking budget feasibility (Hoeffding bound on the coverage fraction).
    penalties = {}
    for advertiser, pool in pools.items():
        pool_size = max(1, len(pool.rr_sets))
        fraction_error = math.sqrt(math.log(2.0 * h / params.delta) / (2.0 * pool_size))
        penalties[advertiser] = pool.cpe * instance.num_nodes * min(
            fraction_error, params.epsilon
        )

    allocation, closed, per_advertiser = _run_allocation(
        instance, pools, penalties, budgets, cost_sensitive
    )
    return SolverResult(
        allocation=allocation,
        revenue=sum(per_advertiser.values()),
        per_advertiser_revenue=per_advertiser,
        seeding_cost=instance.total_seeding_cost(allocation),
        algorithm=algorithm_name,
        depleted_budgets=int(closed.sum()),
        metadata={
            "epsilon": params.epsilon,
            "delta": params.delta,
            **diagnostics,
        },
    )
