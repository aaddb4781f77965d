"""Fault-tolerance suite for the supervised sharded execution layer.

Every test stages a real worker failure through the deterministic
fault-injection harness (:mod:`repro.parallel.faults`) — ``os._exit`` mid
shard, a sleep past the shard timeout, a death inside the payload-broadcast
barrier — and asserts the recovery contract:

* under ``on_pool_failure="degrade"`` the run completes and its results are
  **bit-identical** to a failure-free run (shard layout and RNG substreams
  are pure functions of ``(seed, n_jobs)``, so re-executing a lost shard —
  on a respawned pool or in-process — reproduces it exactly);
* under ``on_pool_failure="raise"`` the failure surfaces promptly as
  :class:`~repro.exceptions.WorkerCrashError` /
  :class:`~repro.exceptions.ShardTimeoutError`;
* recovery telemetry (:class:`~repro.parallel.failure.RecoveryStats`,
  ``PersistentPool.spawn_count``) counts what actually happened, and clean
  runs stay at zero.

Both pool lifetimes are covered: a ``ShardedExecutor`` without a pool,
whose workers live for one ``run()`` call, and a long-lived
:class:`~repro.parallel.PersistentPool` (the :class:`~repro.runtime.Runtime`
pool).  They run the real sharded stages (RR-set generation and Monte-Carlo
spread estimation) plus a tiny echo task for the mechanics-only cases.  All
faults fire on fixed shards with one-shot cross-process latches, so the
suite is deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

from repro.diffusion.models import WeightedCascadeModel
from repro.exceptions import (
    ExecutionError,
    PolicyError,
    ReproError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.graph.generators import preferential_attachment_digraph
from repro.parallel import (
    DEFAULT_FAILURE_POLICY,
    FailurePolicy,
    FaultInjector,
    PersistentPool,
    RecoveryStats,
    ShardedExecutor,
)
from repro.parallel.faults import FAULT_EXIT_CODE
from repro.parallel.mc import sharded_spread
from repro.parallel.rr import run_generation_shards
from repro.rrsets.generator import RRSetGenerator

#: Degrade fast in tests: short backoff, default retry budget.
DEGRADE = FailurePolicy(retry_backoff_s=0.01)

#: Raise mode with a short timeout for the timeout-surfacing tests.
RAISE_FAST = FailurePolicy.fail_fast(shard_timeout_s=1.0)


@pytest.fixture(scope="module")
def micro_graph():
    return preferential_attachment_digraph(60, out_degree=3, seed=2)


@pytest.fixture(scope="module")
def wc_probabilities(micro_graph):
    return np.asarray(
        WeightedCascadeModel(micro_graph).edge_probabilities(), dtype=np.float64
    )


def _echo_task(payload, shard):
    return payload + shard


def _slow_echo_task(payload, shard):
    time.sleep(0.05)
    return payload + shard


def _rr_signature(shards):
    """Hashable bit-level signature of a list of GenerationShards."""
    return tuple(
        (tuple(shard.members.tolist()), tuple(shard.sizes.tolist()))
        for shard in shards
    )


def _recovered(executor, **kwargs):
    """Run ``executor.run`` swallowing only the recovery RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return executor.run(**kwargs)


# --------------------------------------------------------------------------- #
# FailurePolicy algebra
# --------------------------------------------------------------------------- #
class TestFailurePolicy:
    def test_defaults(self):
        policy = FailurePolicy()
        assert policy.shard_timeout_s is None
        assert policy.max_retries == 2
        assert policy.on_pool_failure == "degrade"
        assert policy == DEFAULT_FAILURE_POLICY

    def test_fail_fast_preset(self):
        policy = FailurePolicy.fail_fast(shard_timeout_s=3.0)
        assert policy.on_pool_failure == "raise"
        assert policy.max_retries == 0
        assert policy.shard_timeout_s == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_timeout_s": 0.0},
            {"shard_timeout_s": -1.0},
            {"max_retries": -1},
            {"retry_backoff_s": -0.1},
            {"on_pool_failure": "explode"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PolicyError):
            FailurePolicy(**kwargs)

    def test_describe(self):
        assert FailurePolicy().describe() == (
            "degrade(timeout=none, retries=2, backoff=0.1s)"
        )
        assert "raise(timeout=2s" in FailurePolicy.fail_fast(2.0).describe()

    def test_exception_family(self):
        assert issubclass(WorkerCrashError, ExecutionError)
        assert issubclass(ShardTimeoutError, ExecutionError)
        assert issubclass(ExecutionError, ReproError)

    def test_recovery_stats_events(self):
        stats = RecoveryStats()
        assert stats.events == 0
        stats.worker_crashes += 1
        stats.shards_rerun += 2
        assert stats.events == 3
        assert "crashes=1" in stats.describe()


# --------------------------------------------------------------------------- #
# Pool-less executor (workers live for one run() call): crash / timeout /
# degradation mechanics
# --------------------------------------------------------------------------- #
class TestEphemeralRecovery:
    """A ``ShardedExecutor`` built without ``pool=`` runs each call on a
    pool of its own whose workers are shut down when the call returns."""

    def test_clean_run_zero_recovery(self):
        executor = ShardedExecutor(2, failure=DEGRADE)
        assert executor.run(_echo_task, 100, list(range(6))) == [
            100 + shard for shard in range(6)
        ]
        assert executor.recovery_stats.events == 0

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_worker_kill_recovers_bit_identical(self, when):
        expected = ShardedExecutor(2, failure=DEGRADE).run(
            _echo_task, 100, list(range(6))
        )
        executor = ShardedExecutor(2, failure=DEGRADE)
        injector = FaultInjector()
        spec = injector.kill_worker(shard=1, when=when)
        with injector:
            with pytest.warns(RuntimeWarning):
                results = executor.run(_echo_task, 100, list(range(6)))
        assert results == expected
        assert spec.fire_count == 1
        stats = executor.recovery_stats
        assert stats.worker_crashes >= 1
        assert stats.pool_respawns >= 1
        assert stats.shards_rerun >= 1
        assert stats.serial_fallbacks == 0

    def test_worker_kill_raise_mode(self):
        executor = ShardedExecutor(2, failure=FailurePolicy.fail_fast())
        injector = FaultInjector()
        injector.kill_worker(shard=0, when="before")
        with injector:
            with pytest.raises(WorkerCrashError, match="died"):
                executor.run(_echo_task, 0, list(range(4)))
        # The injected exit code is named in the error path's telemetry.
        assert executor.recovery_stats.worker_crashes == 1

    def test_fault_exit_code_reported(self):
        executor = ShardedExecutor(2, failure=FailurePolicy.fail_fast())
        injector = FaultInjector()
        injector.kill_worker(shard=0, when="before")
        with injector:
            with pytest.raises(WorkerCrashError, match=str(FAULT_EXIT_CODE)):
                executor.run(_echo_task, 0, list(range(4)))

    def test_shard_timeout_degrades_bit_identical(self):
        policy = FailurePolicy(shard_timeout_s=0.4, retry_backoff_s=0.01)
        expected = ShardedExecutor(2).run(_echo_task, 7, list(range(4)))
        executor = ShardedExecutor(2, failure=policy)
        injector = FaultInjector()
        injector.delay_shard(shard=2, seconds=30.0)
        with injector:
            with pytest.warns(RuntimeWarning):
                results = executor.run(_echo_task, 7, list(range(4)))
        assert results == expected
        assert executor.recovery_stats.shard_timeouts >= 1

    def test_shard_timeout_raise_mode_is_prompt(self):
        executor = ShardedExecutor(2, failure=RAISE_FAST)
        injector = FaultInjector()
        injector.delay_shard(shard=0, seconds=30.0)
        start = time.monotonic()
        with injector:
            with pytest.raises(ShardTimeoutError, match="exceeded"):
                executor.run(_slow_echo_task, 0, list(range(4)))
        elapsed = time.monotonic() - start
        # Must surface within the configured timeout plus supervision slack,
        # never wait out the 30 s injected delay.
        assert elapsed < RAISE_FAST.shard_timeout_s + 5.0

    def test_permanent_fault_degrades_to_serial(self):
        # times=-1 → the shard dies on *every* pool, forcing the last rung.
        expected = ShardedExecutor(2).run(_echo_task, 50, list(range(4)))
        executor = ShardedExecutor(2, failure=DEGRADE)
        injector = FaultInjector()
        injector.kill_worker(shard=1, when="before", times=-1)
        with injector:
            with pytest.warns(RuntimeWarning):
                results = executor.run(_echo_task, 50, list(range(4)))
        assert results == expected
        stats = executor.recovery_stats
        assert stats.serial_fallbacks >= 1
        assert stats.worker_crashes > DEGRADE.max_retries

    def test_task_errors_propagate_not_retried(self):
        executor = ShardedExecutor(2, failure=DEGRADE)
        with pytest.raises(ZeroDivisionError):
            executor.run(_divide_task, 1, [1, 0, 2, 4])
        # A deterministic task error is not a pool failure: no recovery.
        assert executor.recovery_stats.events == 0


def _divide_task(payload, shard):
    return payload / shard


def _pid_task(payload, shard):
    return os.getpid()


def _live_children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


# --------------------------------------------------------------------------- #
# Call-scoped pool teardown: no worker outlives run(), even when it raises
# --------------------------------------------------------------------------- #
class TestCallScopedPoolTeardown:
    def test_no_worker_alive_after_run(self):
        before = _live_children()
        executor = ShardedExecutor(2)
        pids = set(executor.run(_pid_task, None, list(range(4))))
        assert os.getpid() not in pids  # the shards ran in worker processes
        assert executor._pool.processes == 0
        assert not pids & _live_children()
        assert _live_children() <= before

    def test_no_worker_alive_after_worker_crash_error(self):
        before = _live_children()
        executor = ShardedExecutor(2, failure=FailurePolicy.fail_fast())
        injector = FaultInjector()
        injector.kill_worker(shard=0, when="before")
        with injector:
            with pytest.raises(WorkerCrashError):
                executor.run(_echo_task, 0, list(range(4)))
        assert executor._pool.processes == 0
        assert _live_children() <= before

    def test_each_run_spawns_and_stops_its_own_workers(self):
        executor = ShardedExecutor(2)
        first = set(executor.run(_pid_task, None, list(range(4))))
        second = set(executor.run(_pid_task, None, list(range(4))))
        assert not first & second  # fresh workers per call
        assert executor._pool.spawn_count == 2
        assert executor.recovery_stats.events == 0


# --------------------------------------------------------------------------- #
# Persistent pool: crash recovery, broadcast poisoning, reuse after recovery
# --------------------------------------------------------------------------- #
class TestPersistentRecovery:
    def test_crash_recovery_bit_identical_and_pool_reusable(self):
        expected = ShardedExecutor(2).run(_echo_task, 9, list(range(6)))
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(2, pool=pool, failure=DEGRADE)
            injector = FaultInjector()
            injector.kill_worker(shard=1, when="before")
            with injector:
                with pytest.warns(RuntimeWarning):
                    results = executor.run(_echo_task, 9, list(range(6)))
            assert results == expected
            assert pool.spawn_count == 2  # initial spawn + recovery respawn
            assert pool.recovery_stats.pool_respawns >= 1
            # The recovered pool keeps serving cleanly.
            before = pool.recovery_stats.events
            assert executor.run(_echo_task, 9, list(range(6))) == expected
            assert pool.spawn_count == 2
            assert pool.recovery_stats.events == before
        finally:
            pool.close()

    def test_crash_raise_mode(self):
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(
                2, pool=pool, failure=FailurePolicy.fail_fast()
            )
            injector = FaultInjector()
            injector.kill_worker(shard=0, when="after")
            with injector:
                with pytest.raises(WorkerCrashError):
                    executor.run(_echo_task, 3, list(range(4)))
        finally:
            pool.close()

    def test_poisoned_broadcast_recovers(self):
        expected = ShardedExecutor(2).run(_echo_task, 11, list(range(4)))
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(2, pool=pool, failure=DEGRADE)
            injector = FaultInjector()
            injector.poison_broadcast()
            with injector:
                with pytest.warns(RuntimeWarning):
                    results = executor.run(_echo_task, 11, list(range(4)))
            assert results == expected
            assert pool.spawn_count == 2
            assert pool.recovery_stats.worker_crashes >= 1
        finally:
            pool.close()

    def test_poisoned_broadcast_raise_mode(self):
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(
                2, pool=pool, failure=FailurePolicy.fail_fast()
            )
            injector = FaultInjector()
            injector.poison_broadcast()
            with injector:
                with pytest.raises(WorkerCrashError, match="broadcast|barrier"):
                    executor.run(_echo_task, 1, list(range(4)))
        finally:
            pool.close()

    def test_permanently_poisoned_broadcast_degrades_serially(self):
        expected = ShardedExecutor(2).run(_echo_task, 21, list(range(4)))
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(2, pool=pool, failure=DEGRADE)
            injector = FaultInjector()
            injector.poison_broadcast(times=-1)
            with injector:
                with pytest.warns(RuntimeWarning):
                    results = executor.run(_echo_task, 21, list(range(4)))
            assert results == expected
            assert pool.recovery_stats.serial_fallbacks == 4
        finally:
            pool.close()


# --------------------------------------------------------------------------- #
# Bit-identity on the real sharded stages: RR generation and sharded MC
# --------------------------------------------------------------------------- #
class TestStageBitIdentity:
    N_JOBS = 2
    RR_COUNT = 48
    MC_SIMS = 200

    def _rr(self, micro_graph, wc_probabilities, executor):
        return run_generation_shards(
            RRSetGenerator, micro_graph, wc_probabilities, self.RR_COUNT, 11, executor
        )

    def _mc(self, micro_graph, wc_probabilities, executor):
        seeds = np.array([0, 3, 5], dtype=np.int64)
        return sharded_spread(
            micro_graph, wc_probabilities, seeds, self.MC_SIMS, 13, executor
        )

    @pytest.fixture(scope="class")
    def rr_expected(self, micro_graph, wc_probabilities):
        return _rr_signature(
            self._rr(micro_graph, wc_probabilities, ShardedExecutor(self.N_JOBS))
        )

    @pytest.fixture(scope="class")
    def mc_expected(self, micro_graph, wc_probabilities):
        return self._mc(micro_graph, wc_probabilities, ShardedExecutor(self.N_JOBS))

    @pytest.mark.parametrize("shard", [0, 1])
    def test_rr_generation_survives_kill_call_scoped(
        self, micro_graph, wc_probabilities, rr_expected, shard
    ):
        executor = ShardedExecutor(self.N_JOBS, failure=DEGRADE)
        injector = FaultInjector()
        injector.kill_worker(shard=shard, when="before")
        with injector, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            shards = self._rr(micro_graph, wc_probabilities, executor)
        assert _rr_signature(shards) == rr_expected
        assert executor.recovery_stats.worker_crashes >= 1

    def test_rr_generation_survives_kill_persistent(
        self, micro_graph, wc_probabilities, rr_expected
    ):
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(self.N_JOBS, pool=pool, failure=DEGRADE)
            injector = FaultInjector()
            injector.kill_worker(shard=1, when="after")
            with injector, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                shards = self._rr(micro_graph, wc_probabilities, executor)
            assert _rr_signature(shards) == rr_expected
            assert pool.recovery_stats.worker_crashes >= 1
        finally:
            pool.close()

    def test_mc_spread_survives_kill_call_scoped(
        self, micro_graph, wc_probabilities, mc_expected
    ):
        executor = ShardedExecutor(self.N_JOBS, failure=DEGRADE)
        injector = FaultInjector()
        injector.kill_worker(shard=0, when="before")
        with injector, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            spread = self._mc(micro_graph, wc_probabilities, executor)
        assert spread == mc_expected

    def test_mc_spread_survives_kill_persistent(
        self, micro_graph, wc_probabilities, mc_expected
    ):
        pool = PersistentPool()
        try:
            executor = ShardedExecutor(self.N_JOBS, pool=pool, failure=DEGRADE)
            injector = FaultInjector()
            injector.kill_worker(shard=0, when="before")
            with injector, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                spread = self._mc(micro_graph, wc_probabilities, executor)
            assert spread == mc_expected
        finally:
            pool.close()

    def test_mc_spread_survives_serial_degradation(
        self, micro_graph, wc_probabilities, mc_expected
    ):
        executor = ShardedExecutor(self.N_JOBS, failure=DEGRADE)
        injector = FaultInjector()
        injector.kill_worker(shard=1, when="before", times=-1)
        with injector, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            spread = self._mc(micro_graph, wc_probabilities, executor)
        assert spread == mc_expected
        assert executor.recovery_stats.serial_fallbacks >= 1


# --------------------------------------------------------------------------- #
# Policy threading: ExecutionPolicy / Runtime / CLI
# --------------------------------------------------------------------------- #
class TestPolicyThreading:
    def test_execution_policy_carries_failure(self):
        from repro.runtime import ExecutionPolicy

        policy = ExecutionPolicy.seed(n_jobs=2, failure=RAISE_FAST)
        assert policy.failure is RAISE_FAST
        assert "failure=raise" in policy.describe()
        assert ExecutionPolicy.fast(failure=DEGRADE).failure is DEGRADE
        default = ExecutionPolicy.seed()
        assert default.failure == DEFAULT_FAILURE_POLICY
        assert "failure=" not in default.describe()

    def test_execution_policy_rejects_bad_failure(self):
        from repro.runtime import ExecutionPolicy

        with pytest.raises(PolicyError):
            ExecutionPolicy.seed(failure="degrade")

    def test_runtime_executor_inherits_failure_policy(self):
        from repro.runtime import ExecutionPolicy, Runtime

        with Runtime(ExecutionPolicy.seed(n_jobs=2, failure=RAISE_FAST)) as rt:
            executor = rt.sharded_executor(2)
            assert executor.failure is RAISE_FAST
            assert rt.recovery_stats.events == 0

    def test_cli_flags_build_failure_policy(self):
        from repro.cli import _resolve_policy, build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "solve",
                "--algorithm",
                "RMA",
                "--shard-timeout",
                "30",
                "--on-pool-failure",
                "raise",
            ]
        )
        policy = _resolve_policy(args)
        assert policy.failure.shard_timeout_s == 30.0
        assert policy.failure.on_pool_failure == "raise"

    def test_runtime_run_with_injected_crash_bit_identical(
        self, micro_graph, wc_probabilities
    ):
        from repro.runtime import ExecutionPolicy, Runtime

        def generate(runtime):
            return _rr_signature(
                run_generation_shards(
                    RRSetGenerator,
                    micro_graph,
                    wc_probabilities,
                    32,
                    5,
                    runtime.sharded_executor(2),
                )
            )

        policy = ExecutionPolicy.seed(n_jobs=2, failure=DEGRADE)
        with Runtime(policy) as rt:
            expected = generate(rt)
        injector = FaultInjector()
        injector.kill_worker(shard=0, when="before")
        with Runtime(policy) as rt:
            with injector, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                recovered = generate(rt)
            assert rt.recovery_stats.worker_crashes >= 1
            assert rt.pool_spawn_count == 2
        assert recovered == expected


# --------------------------------------------------------------------------- #
# exception diagnostics: every raise carries the recovery ledger
# --------------------------------------------------------------------------- #
class TestExceptionDiagnostics:
    """Operators triage from the exception text alone — it must name the
    outstanding shards and embed the full ``RecoveryStats.describe()``."""

    def test_worker_crash_message_embeds_recovery_stats(self):
        executor = ShardedExecutor(2, failure=FailurePolicy.fail_fast())
        injector = FaultInjector()
        injector.kill_worker(shard=0, when="before")
        with injector:
            with pytest.raises(WorkerCrashError) as excinfo:
                executor.run(_echo_task, 0, list(range(4)))
        message = str(excinfo.value)
        assert "[recovery: " in message
        assert executor.recovery_stats.describe() in message
        assert "crashes=1" in message
        # The outstanding shard list is named so the blast radius is visible.
        assert "shard(s) [" in message

    def test_shard_timeout_message_embeds_recovery_stats(self):
        executor = ShardedExecutor(2, failure=RAISE_FAST)
        injector = FaultInjector()
        injector.delay_shard(shard=0, seconds=30.0)
        with injector:
            with pytest.raises(ShardTimeoutError) as excinfo:
                executor.run(_slow_echo_task, 0, list(range(4)))
        message = str(excinfo.value)
        assert "[recovery: " in message
        assert executor.recovery_stats.describe() in message
        assert "timeouts=" in message
        assert f"shard_timeout_s={RAISE_FAST.shard_timeout_s:g}" in message
        assert "shard(s) [" in message  # which shards blew the deadline

    def test_crash_message_stats_include_prior_recoveries(self):
        """The embedded ledger is cumulative: a degrade-mode recovery
        earlier in the runtime's life shows up in a later raise — the
        server's deadline path relies on this for triage context."""
        from repro.runtime import ExecutionPolicy, Runtime

        with Runtime(ExecutionPolicy(n_jobs=2, failure=DEGRADE)) as runtime:
            injector = FaultInjector()
            injector.kill_worker(shard=0, when="before", times=1)
            with injector:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    runtime.sharded_executor(2).run(_echo_task, 0, list(range(4)))
            assert runtime.recovery_stats.worker_crashes == 1
            runtime.close()  # faults arm at pool spawn
            injector2 = FaultInjector()
            injector2.kill_worker(shard=1, when="before")
            with injector2:
                with runtime.overriding_failure(FailurePolicy.fail_fast()):
                    with pytest.raises(WorkerCrashError) as excinfo:
                        runtime.sharded_executor(2).run(
                            _echo_task, 0, list(range(4))
                        )
            assert "crashes=2" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# runtime recovery accumulation + re-entrancy
# --------------------------------------------------------------------------- #
class TestRuntimeRecoveryAccumulation:
    def test_stats_accumulate_across_sequential_executors(self):
        """One runtime, several executors: the runtime-level ledger is the
        union of everything its pool survived."""
        from repro.runtime import ExecutionPolicy, Runtime

        with Runtime(ExecutionPolicy(n_jobs=2, failure=DEGRADE)) as runtime:
            for round_index in range(2):
                runtime.close()  # faults arm at pool spawn
                injector = FaultInjector()
                injector.kill_worker(shard=0, when="before", times=1)
                with injector:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        results = runtime.sharded_executor(2).run(
                            _echo_task, round_index, list(range(4))
                        )
                assert results == [round_index + s for s in range(4)]
                assert runtime.recovery_stats.worker_crashes == round_index + 1
            stats = runtime.recovery_stats
            assert stats.worker_crashes == 2
            assert stats.pool_respawns >= 2
            assert stats.shards_rerun >= 2
            assert stats.as_dict()["worker_crashes"] == 2

    def test_acquire_executor_prefers_ambient_runtime(self):
        from repro.runtime import ExecutionPolicy, Runtime, acquire_executor

        with Runtime(ExecutionPolicy(n_jobs=2)) as runtime:
            executor = acquire_executor(2)
            # Bound to the runtime's pool: they share one recovery ledger.
            assert executor.recovery_stats is runtime.recovery_stats
            # n_jobs always comes from the caller, never the runtime.
            serial = acquire_executor(None)
            assert serial.n_jobs == 1

    def test_acquire_executor_reentrant_under_override(self):
        """acquire_executor during an overriding_failure window hands out
        executors carrying the override; after the window, the policy's own
        failure policy is restored."""
        from repro.runtime import ExecutionPolicy, Runtime, acquire_executor

        policy = ExecutionPolicy(n_jobs=2, failure=DEGRADE)
        deadline = FailurePolicy.fail_fast(shard_timeout_s=0.5)
        with Runtime(policy) as runtime:
            with runtime.overriding_failure(deadline):
                inner = acquire_executor(2)
                assert inner.failure is deadline
                # Nested override wins, then unwinds to the outer one.
                tighter = FailurePolicy.fail_fast(shard_timeout_s=0.1)
                with runtime.overriding_failure(tighter):
                    assert acquire_executor(2).failure is tighter
                assert acquire_executor(2).failure is deadline
                # An explicit failure= still beats the ambient override.
                explicit = runtime.sharded_executor(2, failure=DEGRADE)
                assert explicit.failure is DEGRADE
            assert acquire_executor(2).failure is policy.failure

    def test_override_restored_after_exception(self):
        from repro.runtime import ExecutionPolicy, Runtime

        policy = ExecutionPolicy(n_jobs=2, failure=DEGRADE)
        deadline = FailurePolicy.fail_fast(shard_timeout_s=0.5)
        with Runtime(policy) as runtime:
            with pytest.raises(RuntimeError, match="boom"):
                with runtime.overriding_failure(deadline):
                    raise RuntimeError("boom")
            assert runtime.sharded_executor(2).failure is policy.failure

    def test_close_during_drain_is_reentrant(self):
        """close() is idempotent and the runtime stays usable after it —
        the server's drain path closes the pool while later requests may
        still acquire executors."""
        from repro.runtime import ExecutionPolicy, Runtime

        with Runtime(ExecutionPolicy(n_jobs=2)) as runtime:
            first = runtime.sharded_executor(2).run(_echo_task, 1, [0, 1])
            runtime.close()
            runtime.close()  # double close is fine
            again = runtime.sharded_executor(2).run(_echo_task, 1, [0, 1])
            assert again == first
            assert runtime.pool_spawn_count >= 2
