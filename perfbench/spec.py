"""Every metric the benchmark reports: unit, direction, meaning, and for each
per-layer metric the end-to-end metric and workload it should move.

``BENCHMARK.json`` lists the same names, units and directions (a test keeps
the two in step); it has no field for the rest, so it lives here and the
command prints it next to each value.

Per-solve means: on ``rma_fill`` one RMA solve, on ``ti_sampling`` one
TI-CARM or TI-CSRM solve, on ``serve_mixed`` one ``allocate`` request.  A
layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    meaning: str
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "median of 7 set-ups: dataset build, shared evaluator, pool spawn, warm-up"),
    Metric("solve_s", "s", "lower",
           "median wall seconds per solve (serve_mixed: dispatch-thread seconds per allocate)"),
    Metric("revenue", "revenue", "higher",
           "mean revenue per solve under the shared independent evaluator"),
    Metric("peak_rss_mib", "MiB", "lower", "peak resident memory of the benchmark process"),
)

PER_LAYER: Tuple[Metric, ...] = (
    # repro.rrsets
    Metric("rrsets.generate_s", "s", "lower",
           "UniformRRSampler.generate_collection + RRSetGenerator.generate_batch_parallel, per solve",
           "solve_s, mostly on ti_sampling, a little on rma_fill"),
    Metric("rrsets.rr_sets", "count", "lower",
           "RR sets generated per solve (result metadata)",
           "none under a pure speed change"),
    Metric("rrsets.edges_examined", "count", "lower",
           "edges examined per solve (RMA metadata; TI: pool-fill generator counters)",
           "none under a pure speed change"),
    Metric("rrsets.sets_per_s", "1/s", "higher",
           "rrsets.rr_sets / rrsets.generate_s",
           "solve_s on ti_sampling and rma_fill"),
    Metric("rrsets.apply_deltas_ms", "ms", "lower",
           "median RRStore.apply_deltas call",
           "refresh_p50_ms and spread_tail_ms on serve_mixed"),
    Metric("rrsets.spread_estimate_ms", "ms", "lower",
           "median estimate_advertiser_revenue call made by the server",
           "spread_p50_ms on serve_mixed"),
    Metric("rrsets.redrawn_per_refresh", "count", "lower",
           "mean RR slots redrawn per refresh (from the replies)",
           "refresh_p50_ms on serve_mixed"),
    # repro.core
    Metric("core.rm_with_oracle_s", "s", "lower",
           "rm_with_oracle per solve (as called by RMA and by the server)",
           "solve_s on rma_fill and serve_mixed; nothing on ti_sampling"),
    Metric("core.threshold_greedy_s", "s", "lower", "ThresholdGreedy per solve",
           "solve_s on rma_fill and serve_mixed"),
    Metric("core.threshold_greedy_calls", "count", "lower", "ThresholdGreedy calls per solve",
           "none under a pure speed change"),
    Metric("core.fill_s", "s", "lower", "Fill per solve",
           "solve_s on rma_fill and serve_mixed; nothing on ti_sampling"),
    Metric("core.fill_calls", "count", "lower", "Fill calls per solve",
           "none under a pure speed change"),
    Metric("core.gamma_max_s", "s", "lower", "gamma_max per solve",
           "solve_s on rma_fill and serve_mixed"),
    Metric("core.seek_ub_s", "s", "lower", "SeekUB per solve",
           "solve_s on rma_fill"),
    Metric("core.rma_self_s", "s", "lower",
           "RMA solve minus its traced children: oracle construction, R2 validation",
           "solve_s on rma_fill"),
    Metric("core.fill_share", "ratio", "lower",
           "Fill seconds over solve seconds (serve_mixed: over allocate service seconds)",
           "solve_s on rma_fill, spread_tail_ms on serve_mixed"),
    # repro.utils.lazy_heap / repro.rrsets.collection
    Metric("lazy_heap.pops", "count", "lower", "BatchedLazyGreedy.pop_best calls per solve",
           "solve_s on rma_fill"),
    Metric("collection.seeds_added", "count", "lower", "CoverageState.add_seed calls per solve",
           "none under a pure speed change"),
    Metric("core.useful_pop_ratio", "ratio", "higher",
           "collection.seeds_added / lazy_heap.pops",
           "solve_s on rma_fill"),
    # repro.baselines
    Metric("baselines.pilot_s", "s", "lower", "ti_common.pilot_pool per solve",
           "solve_s on ti_sampling"),
    Metric("baselines.alloc_s", "s", "lower",
           "TI solve minus its traced children: pool indexing and the allocation loop",
           "solve_s on ti_sampling"),
    # repro.parallel / repro.runtime
    Metric("parallel.broadcasts", "count", "lower",
           "PersistentPool payload broadcasts per solve",
           "setup_s everywhere, solve_s on ti_sampling"),
    Metric("parallel.broadcast_s", "s", "lower", "PersistentPool broadcast seconds per solve",
           "setup_s everywhere, solve_s on ti_sampling"),
    Metric("runtime.pool_spawns", "count", "lower",
           "pool spawns of the measured Runtime over the run",
           "setup_s everywhere"),
    Metric("parallel.recovery_events", "count", "lower",
           "sum of Runtime.recovery_stats; 0 on a clean run",
           "none on a clean run"),
    # set-up breakdown
    Metric("datasets.build_s", "s", "lower", "build_dataset, median over set-ups",
           "setup_s"),
    Metric("runtime.spawn_s", "s", "lower", "first pool broadcast (spawns the workers)",
           "setup_s"),
    Metric("experiments.evaluator_build_s", "s", "lower", "independent_evaluator",
           "setup_s"),
    # repro.serve
    Metric("spread_p50_ms", "ms", "lower", "median spread latency from its due time",
           "end to end on serve_mixed"),
    Metric("spread_tail_ms", "ms", "lower",
           "spread latency at the highest percentile with >=10 samples beyond it",
           "end to end on serve_mixed: head-of-line blocking behind allocate"),
    Metric("allocate_p50_ms", "ms", "lower", "median allocate latency from its due time",
           "end to end on serve_mixed"),
    Metric("refresh_p50_ms", "ms", "lower", "median refresh latency from its due time",
           "end to end on serve_mixed"),
    Metric("serve.queue_wait_p50_ms", "ms", "lower",
           "median wait before dispatch, from arrival and completion order",
           "spread_p50_ms and spread_tail_ms on serve_mixed"),
    Metric("serve.queue_wait_tail_ms", "ms", "lower",
           "queue wait at the highest percentile with >=10 samples beyond it",
           "spread_tail_ms on serve_mixed"),
    Metric("serve.dispatch_busy_frac", "ratio", "lower",
           "share of the run the dispatch thread spent serving",
           "every serve_mixed latency"),
    Metric("serve.allocate_service_ms", "ms", "lower",
           "median rm_with_oracle call made by repro.serve.server",
           "solve_s and spread_tail_ms on serve_mixed"),
    Metric("serve.shed", "count", "lower", "requests shed by admission (server.stats)",
           "failed requests on serve_mixed"),
    Metric("serve.coalesced", "count", "higher", "requests answered by another's pass",
           "serve_mixed latencies"),
    # health
    Metric("loadgen.lag_tail_ms", "ms", "lower",
           "generator lateness at the highest percentile with >=10 samples beyond it",
           "validity of the serve_mixed latencies"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "traced / untraced time of the same first solve (serve_mixed: one allocate) - 1",
           "validity of the traced breakdown"),
)
