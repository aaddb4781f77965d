"""The benchmark's three workloads, run through the library's public API.

Why these three (each stresses a different layer):

* ``rma_fill`` — RMA on ``dblp_like`` with ``initial_rr_sets=1000`` and
  ``max_rr_sets=64000``: several doubling rounds, so ``repro.core`` greedy
  (ThresholdGreedy + Fill on ``BatchedLazyGreedy``) does most of the work.
  A selection-kernel change must move it.
* ``ti_sampling`` — TI-CARM and TI-CSRM on ``livejournal_like``, whose
  heavy-tailed in-degree makes RR sets large: per-advertiser pool generation
  (``repro.rrsets`` + ``repro.parallel``) dominates and the allocation loop
  pops little.  A Fill change should not move it.
* ``serve_mixed`` — an open loop of ``spread`` reads, ``allocate`` reads and
  one-delta ``refresh`` writes against an in-process ``AllocationServer``;
  the ``spread`` tail shows head-of-line blocking behind ``allocate`` on the
  single dispatch thread.

Every workload pins ``ExecutionPolicy.fast(n_jobs=2)``, so RR substreams and
therefore allocations are the same on any host (``REPRO_MAX_JOBS`` caps the
processes without changing results), and holds one warm ``Runtime``.

Inputs: the dataset, evaluator and store seeds are fixed and the solve seeds
are a fixed list.  RMA's doubling rounds, and so its time and revenue, swing
by up to 2x between solve seeds, and budgets are drawn per dataset; drawn
afresh per run they would spread the results past any useful bound.  The
workload seed sets the order of the solve seeds and, on ``serve_mixed``, the
arrival times and the content of every request.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import ti_carm, ti_csrm
from repro.baselines.ti_common import TIParameters
from repro.core import SamplingParameters, rm_without_oracle
from repro.datasets import build_dataset
from repro.experiments.metrics import independent_evaluator
from repro.graph.deltas import UpdateProbability
from repro.parallel.executor import worker_process_cap
from repro.runtime import ExecutionPolicy, Runtime
from repro.serve import AllocationServer
from repro.serve.protocol import delta_to_json

from perfbench import checks, measure
from perfbench.tracing import Tracer

N_JOBS = 2
POLICY = ExecutionPolicy.fast(n_jobs=N_JOBS)
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
EVALUATOR_SEED = 5


@dataclass(frozen=True)
class Instance:
    """A registry dataset and the shared independent evaluator's size."""

    dataset: str
    scale: float
    advertisers: int
    dataset_seed: int
    evaluator_rr_sets: int


@dataclass(frozen=True)
class SolverWorkload:
    instance: Instance
    solve_seeds: Tuple[int, ...]
    initial_rr_sets: int = 1000  # RMA only
    max_rr_sets: int = 64000  # RMA only
    ti_max_rr_sets: int = 4096  # TI default cap per advertiser


@dataclass(frozen=True)
class ServeWorkload:
    instance: Instance
    store_rr_sets: int
    store_seed: int
    spread_rate: float  # requests per second
    allocate_rate: float
    refresh_rate: float


RMA_FILL = SolverWorkload(Instance("dblp_like", 0.5, 5, 1, 20000), solve_seeds=(10, 12, 14, 15))
TI_SAMPLING = SolverWorkload(Instance("livejournal_like", 1.0, 5, 1, 20000), solve_seeds=(1, 2, 3))
SERVE_MIXED = ServeWorkload(
    Instance("lastfm_like", 1.0, 5, 1, 20000),
    store_rr_sets=2000,
    store_seed=7,
    spread_rate=20.0,
    allocate_rate=0.6,
    refresh_rate=2.0,
)

#: Small variants for the benchmark's own smoke tests.
TINY = {
    "rma_fill": SolverWorkload(
        Instance("dblp_like", 0.1, 3, 1, 2000), solve_seeds=(1, 2), initial_rr_sets=200, max_rr_sets=800
    ),
    "ti_sampling": SolverWorkload(
        Instance("livejournal_like", 0.1, 3, 1, 2000), solve_seeds=(1,), ti_max_rr_sets=256
    ),
    "serve_mixed": ServeWorkload(
        Instance("lastfm_like", 0.2, 3, 1, 2000),
        store_rr_sets=300,
        store_seed=7,
        spread_rate=20.0,
        allocate_rate=1.0,
        refresh_rate=4.0,
    ),
}
FULL = {"rma_fill": RMA_FILL, "ti_sampling": TI_SAMPLING, "serve_mixed": SERVE_MIXED}


@dataclass
class Result:
    """What one run measured, before formatting."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    notes: Dict[str, object]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
@dataclass
class Session:
    """Everything one set-up builds."""

    data: object
    runtime: Runtime
    evaluator: object
    timings: Dict[str, float]
    server: Optional[AllocationServer] = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.runtime.close()


def _set_up(spec: Instance, serve: Optional[ServeWorkload] = None) -> Session:
    started = time.perf_counter()
    data = build_dataset(
        spec.dataset, num_advertisers=spec.advertisers, scale=spec.scale, seed=spec.dataset_seed
    )
    built = time.perf_counter()
    runtime = Runtime(POLICY)
    server = None
    try:
        cap = worker_process_cap()
        runtime.pool.broadcast((), N_JOBS if cap is None else min(N_JOBS, cap))
        spawned = time.perf_counter()
        evaluator = independent_evaluator(
            data.instance, spec.evaluator_rr_sets, seed=EVALUATOR_SEED, policy=POLICY, runtime=runtime
        )
        evaluated = time.perf_counter()
        if serve is not None:
            server = AllocationServer(
                data.instance, POLICY, rr_sets=serve.store_rr_sets, seed=serve.store_seed, runtime=runtime
            ).start()
            reply = server.request({"op": "spread", "advertiser": 0, "seeds": [0]})
            if not reply["ok"]:
                raise RuntimeError(f"warm-up spread failed: {reply['error']}")
    except BaseException:
        if server is not None:
            server.close()
        runtime.close()
        raise
    finished = time.perf_counter()
    timings = {
        "setup_s": finished - started,
        "datasets.build_s": built - started,
        "runtime.spawn_s": spawned - built,
        "experiments.evaluator_build_s": evaluated - spawned,
    }
    return Session(data, runtime, evaluator, timings, server)


def _set_up_repeatedly(spec: Instance, serve: Optional[ServeWorkload] = None) -> Tuple[Session, Dict[str, float]]:
    """Run :data:`SETUPS` set-ups, keep the last, report median timings."""
    sessions = []
    for _ in range(SETUPS):
        if sessions:
            sessions[-1].close()
        sessions.append(_set_up(spec, serve))
    medians = {
        key: measure.median([session.timings[key] for session in sessions])
        for key in sessions[-1].timings
    }
    return sessions[-1], medians


#: Per-layer metrics only ``serve_mixed`` exercises; the solver workloads report 0.
SERVE_ONLY = (
    "rrsets.apply_deltas_ms",
    "rrsets.spread_estimate_ms",
    "rrsets.redrawn_per_refresh",
    "spread_p50_ms",
    "spread_tail_ms",
    "allocate_p50_ms",
    "refresh_p50_ms",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_tail_ms",
    "serve.dispatch_busy_frac",
    "serve.allocate_service_ms",
    "serve.shed",
    "serve.coalesced",
    "loadgen.lag_tail_ms",
)


def _rotated(seeds: Tuple[int, ...], seed: int) -> List[int]:
    shift = seed % len(seeds)
    return list(seeds[shift:] + seeds[:shift])


def _per_solve(tracer: Tracer, solves: int) -> Dict[str, float]:
    """The traced per-solve layer metrics every workload shares."""
    pops = tracer.calls("lazy_heap.pops")
    added = tracer.calls("collection.seeds_added")
    fill = tracer.total("core.fill")
    return {
        "rrsets.generate_s": tracer.total("rrsets.generate") / solves,
        "core.rm_with_oracle_s": tracer.total("core.rm_with_oracle") / solves,
        "core.threshold_greedy_s": tracer.total("core.threshold_greedy") / solves,
        "core.threshold_greedy_calls": tracer.calls("core.threshold_greedy") / solves,
        "core.fill_s": fill / solves,
        "core.fill_calls": tracer.calls("core.fill") / solves,
        "core.gamma_max_s": tracer.total("core.gamma_max") / solves,
        "core.seek_ub_s": tracer.total("core.seek_ub") / solves,
        "lazy_heap.pops": pops / solves,
        "collection.seeds_added": added / solves,
        "core.useful_pop_ratio": added / pops if pops else 0.0,
        "baselines.pilot_s": tracer.total("baselines.pilot") / solves,
        "parallel.broadcasts": tracer.calls("parallel.broadcast") / solves,
        "parallel.broadcast_s": tracer.total("parallel.broadcast") / solves,
    }


def _run_health(session: Session, setup: Dict[str, float]) -> Dict[str, float]:
    layer = {key: value for key, value in setup.items() if key != "setup_s"}
    layer["runtime.pool_spawns"] = session.runtime.pool_spawn_count
    layer["parallel.recovery_events"] = session.runtime.recovery_stats.events
    return layer


# ---------------------------------------------------------------------- #
# rma_fill and ti_sampling
# ---------------------------------------------------------------------- #
def _check_allocation(instance, seed_sets, evaluator) -> List[str]:
    return checks.allocation_errors(
        seed_sets, instance.num_nodes, instance.num_advertisers
    ) + checks.budget_errors(instance, seed_sets, evaluator)


def _run_solver(
    name: str,
    workload: SolverWorkload,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    session: Session,
    setup: Dict[str, float],
) -> Result:
    instance = session.data.instance
    runtime = session.runtime
    algorithms: Tuple[Callable, ...]
    if name == "rma_fill":

        def rma(solve_seed: int):
            params = SamplingParameters(
                initial_rr_sets=workload.initial_rr_sets,
                max_rr_sets=workload.max_rr_sets,
                seed=solve_seed,
                policy=POLICY,
            )
            return rm_without_oracle(instance, params, runtime=runtime)

        algorithms = (rma,)
    else:

        def carm(solve_seed: int):
            params = TIParameters(
                seed=solve_seed, max_rr_sets_per_advertiser=workload.ti_max_rr_sets, policy=POLICY
            )
            return ti_carm(instance, params, runtime=runtime)

        def csrm(solve_seed: int):
            params = TIParameters(
                seed=solve_seed, max_rr_sets_per_advertiser=workload.ti_max_rr_sets, policy=POLICY
            )
            return ti_csrm(instance, params, runtime=runtime)

        algorithms = (carm, csrm)

    order = _rotated(workload.solve_seeds, seed)

    def solve_round(solve_seed: int, traced: bool) -> Tuple[float, list]:
        """One solve per algorithm on ``solve_seed``: (seconds per solve, results)."""
        results = []
        started = time.perf_counter()
        for algorithm in algorithms:
            with tracer.span("solve") if traced else nullcontext():
                results.append(algorithm(solve_seed))
        return (time.perf_counter() - started) / len(algorithms), results

    calibration = None
    installed = nullcontext()
    if tracer is not None:
        calibration = solve_round(order[0], traced=False)[0]
        installed = tracer.installed()

    times: List[float] = []
    revenues: List[float] = []
    rr_sets: List[float] = []
    edges: List[float] = []
    errors: List[str] = []
    attempted = failed = 0
    loop_started = time.perf_counter()
    with installed:
        while True:
            cycle_started = time.perf_counter()
            for solve_seed in order:
                per_solve, results = solve_round(solve_seed, tracer is not None)
                times.append(per_solve)
                for result in results:
                    attempted += 1
                    seed_sets = dict(result.allocation.items())
                    problems = _check_allocation(instance, seed_sets, session.evaluator)
                    if problems:
                        failed += 1
                        errors.extend(f"{result.algorithm} seed {solve_seed}: {p}" for p in problems)
                    revenues.append(checks.evaluated_revenue(seed_sets, session.evaluator))
                    meta = result.metadata
                    if name == "rma_fill":
                        rr_sets.append(2 * meta["rr_sets"])  # R1 and R2
                        edges.append(meta["edges_examined"])
                    else:
                        rr_sets.append(meta["generated_rr_sets_total"])
            now = time.perf_counter()
            if now - loop_started + (now - cycle_started) > seconds:
                break

    solves = attempted
    end_to_end = {
        "setup_s": setup["setup_s"],
        "solve_s": measure.median(times),
        "revenue": float(np.mean(revenues)),
        "peak_rss_mib": measure.peak_rss_mib(),
    }
    notes: Dict[str, object] = {
        "solve_seeds": order,
        "solves": solves,
        "solve_s_samples": len(times),
        "solve_times_s": [round(t, 3) for t in times],
        "setups": SETUPS,
        "failed_frac": failed / attempted,
    }
    if name == "ti_sampling":
        notes["solve_s_definition"] = "mean of the TI-CARM and TI-CSRM solve on one seed"
        notes["revenue_ti_carm"] = float(np.mean(revenues[0::2]))
        notes["revenue_ti_csrm"] = float(np.mean(revenues[1::2]))

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        per_layer = _run_health(session, setup)
        per_layer.update(_per_solve(tracer, solves))
        generate_s = per_layer["rrsets.generate_s"]
        per_layer["rrsets.rr_sets"] = float(np.mean(rr_sets))
        per_layer["rrsets.edges_examined"] = (
            float(np.mean(edges)) if edges else tracer.edges_examined / solves
        )
        per_layer["rrsets.sets_per_s"] = per_layer["rrsets.rr_sets"] / generate_s if generate_s else 0.0
        solve_self = tracer.self_time["solve"] / solves
        per_layer["core.rma_self_s"] = solve_self if name == "rma_fill" else 0.0
        per_layer["baselines.alloc_s"] = solve_self if name == "ti_sampling" else 0.0
        per_layer["core.fill_share"] = tracer.total("core.fill") / tracer.total("solve")
        per_layer.update(dict.fromkeys(SERVE_ONLY, 0.0))
        # The first timed round repeats the untraced calibration round.
        per_layer["trace.overhead_frac"] = times[0] / calibration - 1.0
        notes["trace_calibration"] = f"seed {order[0]}: {calibration:.3f} s untraced, {times[0]:.3f} s traced"
    return Result(end_to_end, per_layer, notes, attempted, failed, errors)


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
@dataclass
class _Request:
    op: str
    offset: float  # seconds after the start of the schedule
    body: dict
    due: float = 0.0  # monotonic clock, set when the schedule starts
    sent: float = 0.0
    arrival: float = 0.0
    completed: float = 0.0
    reply: Optional[dict] = None


def _schedule(workload: ServeWorkload, instance, seed: int, seconds: float) -> List[_Request]:
    """Seeded Poisson arrivals, conditioned on a fixed count per op.

    Given its count, a Poisson process's arrival times are uniform order
    statistics over the window; fixing the counts keeps the offered load
    identical across seeds while the times and contents vary.
    """
    rng = np.random.default_rng(seed)
    graph = instance.graph
    h, n = instance.num_advertisers, instance.num_nodes
    requests: List[_Request] = []
    for op, rate in (
        ("spread", workload.spread_rate),
        ("allocate", workload.allocate_rate),
        ("refresh", workload.refresh_rate),
    ):
        count = max(1, int(round(rate * seconds)))
        for offset in rng.uniform(0.0, seconds, size=count):
            if op == "spread":
                size = int(rng.integers(1, 21))
                body = {
                    "op": "spread",
                    "advertiser": int(rng.integers(0, h)),
                    "seeds": sorted(int(v) for v in rng.choice(n, size=size, replace=False)),
                }
            elif op == "allocate":
                body = {"op": "allocate"}
            else:
                edge = int(rng.integers(0, graph.num_edges))
                delta = UpdateProbability(
                    int(graph.sources[edge]),
                    int(graph.targets[edge]),
                    float(rng.uniform(0.01, 0.5)),
                    advertiser=int(rng.integers(0, h)),
                )
                body = {"op": "refresh", "deltas": [delta_to_json(delta)]}
            requests.append(_Request(op, float(offset), body))
    requests.sort(key=lambda request: request.offset)
    for index, request in enumerate(requests):
        request.body["id"] = index
    return requests


def _latencies(requests: List[_Request], op: str) -> List[float]:
    return [
        (r.completed - r.due) * 1000.0
        for r in requests
        if r.op == op and r.reply is not None and r.reply.get("ok")
    ]


def _tail_value(samples: List[float], notes: Dict[str, object], key: str) -> float:
    summary = measure.tail(samples)
    if summary is None:
        notes[key] = f"no tail: {len(samples)} samples"
        return max(samples) if samples else 0.0
    notes[key] = f"p{summary['percentile']:.2f} of {summary['samples']} samples"
    return summary["value"]


def _run_serve(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    session: Session,
    setup: Dict[str, float],
) -> Result:
    server = session.server
    instance = session.data.instance
    requests = _schedule(workload, instance, seed, seconds)

    calibration = None
    installed = nullcontext()
    if tracer is not None:
        started = time.perf_counter()
        server.request({"op": "allocate"})
        calibration = time.perf_counter() - started
        installed = tracer.installed()

    done = threading.Semaphore(0)

    def on_done(request: _Request) -> Callable:
        def record(ticket) -> None:
            request.completed = time.monotonic()
            request.arrival = ticket.arrival
            request.reply = ticket.reply
            done.release()

        return record

    with installed:
        traced_allocate = None
        if tracer is not None:
            started = time.perf_counter()
            server.request({"op": "allocate"})
            traced_allocate = time.perf_counter() - started
        origin = time.monotonic() + 0.05
        for request in requests:
            request.due = origin + request.offset
            delay = request.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            request.sent = time.monotonic()
            server.submit(request.body, on_done=on_done(request))
        deadline = time.monotonic() + 120.0
        for _ in requests:
            if not done.acquire(timeout=max(0.0, deadline - time.monotonic())):
                break

    errors: List[str] = []
    failed = 0
    revenues: List[float] = []
    redrawn: List[int] = []
    for request in requests:
        reply = request.reply
        if reply is None or not reply.get("ok"):
            failed += 1
            detail = "no reply" if reply is None else reply.get("error")
            errors.append(f"{request.op} #{request.body['id']}: {detail}")
            continue
        result = reply["result"]
        if request.op == "allocate":
            seed_sets = {int(a): [int(v) for v in nodes] for a, nodes in result["allocation"].items()}
            problems = _check_allocation(instance, seed_sets, session.evaluator)
            if problems:
                failed += 1
                errors.extend(f"allocate #{request.body['id']}: {p}" for p in problems)
            revenues.append(checks.evaluated_revenue(seed_sets, session.evaluator))
        elif request.op == "refresh":
            redrawn.append(result["redrawn"])

    server.close()
    store_problems = checks.store_errors(server.store, session.runtime)
    attempted = len(requests) + 1  # the store check counts as one operation
    if store_problems:
        failed += 1
        errors.extend(store_problems)

    notes: Dict[str, object] = {
        "requests": {op: sum(r.op == op for r in requests) for op in ("spread", "allocate", "refresh")},
        "offered_rates_per_s": {
            "spread": workload.spread_rate,
            "allocate": workload.allocate_rate,
            "refresh": workload.refresh_rate,
        },
        "window_s": seconds,
        "setups": SETUPS,
        "failed_frac": failed / attempted,
    }
    spread = _latencies(requests, "spread")
    allocate = _latencies(requests, "allocate")
    refresh = _latencies(requests, "refresh")
    spread_tail = _tail_value(spread, notes, "spread_tail")
    notes.update(
        spread_p50_ms=measure.median(spread) if spread else 0.0,
        spread_tail_ms=spread_tail,
        allocate_p50_ms=measure.median(allocate) if allocate else 0.0,
        refresh_p50_ms=measure.median(refresh) if refresh else 0.0,
    )
    allocate_service = _allocate_service_s(requests)
    notes["allocate_service_samples"] = len(allocate_service)
    end_to_end = {
        "setup_s": setup["setup_s"],
        "solve_s": measure.median(allocate_service) if allocate_service else 0.0,
        "revenue": float(np.mean(revenues)) if revenues else 0.0,
        "peak_rss_mib": measure.peak_rss_mib(),
    }

    per_layer: Dict[str, float] = {}
    if tracer is not None:
        solves = max(1, len(allocate) + 1)  # the traced calibration allocate too
        per_layer = _run_health(session, setup)
        per_layer.update(_per_solve(tracer, solves))
        service = tracer.durations.get("core.rm_with_oracle", [])
        per_layer.update(
            {
                "rrsets.rr_sets": 0.0,
                "rrsets.edges_examined": 0.0,
                "rrsets.sets_per_s": 0.0,
                "core.rma_self_s": 0.0,
                "baselines.alloc_s": 0.0,
                "core.fill_share": tracer.total("core.fill") / sum(service) if service else 0.0,
                "serve.allocate_service_ms": measure.median(service) * 1000.0 if service else 0.0,
                "rrsets.apply_deltas_ms": _median_ms(tracer, "rrsets.apply_deltas"),
                "rrsets.spread_estimate_ms": _median_ms(tracer, "rrsets.spread_estimate"),
                "rrsets.redrawn_per_refresh": float(np.mean(redrawn)) if redrawn else 0.0,
                "spread_p50_ms": notes["spread_p50_ms"],
                "spread_tail_ms": notes["spread_tail_ms"],
                "allocate_p50_ms": notes["allocate_p50_ms"],
                "refresh_p50_ms": notes["refresh_p50_ms"],
                "serve.shed": server.stats.shed,
                "serve.coalesced": server.stats.coalesced,
                "trace.overhead_frac": traced_allocate / calibration - 1.0,
            }
        )
        per_layer.update(_queue_metrics(requests, notes))
        lag = [(r.sent - r.due) * 1000.0 for r in requests]
        per_layer["loadgen.lag_tail_ms"] = _tail_value(lag, notes, "loadgen_lag_tail")
        notes["trace_calibration"] = (
            f"allocate: {calibration:.3f} s untraced, {traced_allocate:.3f} s traced"
        )
    return Result(end_to_end, per_layer, notes, attempted, failed, errors)


def _median_ms(tracer: Tracer, name: str) -> float:
    durations = tracer.durations.get(name, [])
    return measure.median(durations) * 1000.0 if durations else 0.0


def _dispatch_starts(requests: List[_Request]) -> List[Tuple[_Request, float]]:
    """Each answered request with the time its service started, in completion order.

    One dispatch thread serves tickets in completion order, so a ticket's
    service starts at the later of its arrival and the previous completion.
    """
    answered = sorted((r for r in requests if r.reply is not None), key=lambda r: r.completed)
    starts = []
    previous = float("-inf")
    for request in answered:
        starts.append((request, max(request.arrival, previous)))
        previous = request.completed
    return starts


def _allocate_service_s(requests: List[_Request]) -> List[float]:
    """Seconds the dispatch thread spent on each ``allocate`` it executed.

    A request coalesced into another's pass is resolved right after it with
    the very same result object; it executed nothing, so it is left out.
    """
    services = []
    previous: Optional[dict] = None
    for request, start in _dispatch_starts(requests):
        result = request.reply.get("result")
        coalesced = result is not None and previous is not None and result is previous.get("result")
        if request.op == "allocate" and request.reply.get("ok") and not coalesced:
            services.append(request.completed - start)
        previous = request.reply
    return services


def _queue_metrics(requests: List[_Request], notes: Dict[str, object]) -> Dict[str, float]:
    """Queue wait and busy share, derived from arrivals and completion order."""
    starts = _dispatch_starts(requests)
    waits = [(start - request.arrival) * 1000.0 for request, start in starts]
    busy = sum(request.completed - start for request, start in starts)
    window = starts[-1][0].completed - requests[0].due if starts else 0.0
    return {
        "serve.queue_wait_p50_ms": measure.median(waits) if waits else 0.0,
        "serve.queue_wait_tail_ms": _tail_value(waits, notes, "queue_wait_tail"),
        "serve.dispatch_busy_frac": busy / window if window > 0 else 0.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Result:
    """Run one workload; ``tiny`` selects the smoke-test sizes."""
    workload = (TINY if tiny else FULL)[name]
    tracer = Tracer() if trace else None
    serve = workload if isinstance(workload, ServeWorkload) else None
    session, setup = _set_up_repeatedly(workload.instance, serve)
    try:
        if serve is not None:
            return _run_serve(serve, seed, seconds, tracer, session, setup)
        return _run_solver(name, workload, seed, seconds, tracer, session, setup)
    finally:
        session.close()
