"""The :class:`Runtime` — a context that owns a persistent worker pool.

Without a runtime every sharded call (``generate_collection``, sharded MC
spread, TI pool fills) spawns and shuts down the workers of a pool of its
own — ~30–60 ms each, paid repeatedly across RMA's doubling rounds.  A
``Runtime`` owns one :class:`~repro.parallel.executor.PersistentPool` whose
workers outlive those calls and hands out
:class:`~repro.parallel.executor.ShardedExecutor` views bound to it, so the
pool is spawned at most once per context no matter how many rounds run::

    from repro.runtime import ExecutionPolicy, Runtime

    with Runtime(ExecutionPolicy.fast(n_jobs=4)) as rt:
        result = rm_without_oracle(instance, params, runtime=rt)

Entering a runtime also makes it the *ambient* runtime
(:func:`current_runtime`), so layers that were not handed the object
explicitly — the independent evaluator, nested oracle queries — still reuse
the pool through :func:`acquire_executor`.

Determinism contract: a runtime never influences results.  Shard layout and
RNG substreams are fixed by each call's ``n_jobs``; the pool only recycles
OS processes, so a run inside a ``Runtime`` block is bit-identical to the
same run without one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.parallel.executor import PersistentPool, ShardedExecutor
from repro.parallel.failure import FailurePolicy
from repro.runtime.policy import ExecutionPolicy, resolve_policy

#: Stack of entered runtimes; the innermost ``with`` block wins.
_ACTIVE: List["Runtime"] = []


class Runtime:
    """Owns an :class:`ExecutionPolicy` and a persistent worker pool.

    Parameters
    ----------
    policy:
        The execution policy this runtime represents; defaults to
        :meth:`ExecutionPolicy.fast`, like every other entry point.  Purely
        descriptive — it never leaks into :meth:`sharded_executor`, whose
        ``n_jobs`` (and therefore the results) always comes from the caller.
    start_method:
        Multiprocessing start method for the pool (default: ``fork`` on
        Linux, overridable via ``REPRO_MP_START_METHOD``).
    """

    def __init__(
        self,
        policy: Optional[ExecutionPolicy] = None,
        start_method: Optional[str] = None,
    ):
        self._policy = resolve_policy(policy)
        self._pool = PersistentPool(
            start_method=start_method, payload_mode=self._policy.payload
        )
        self._failure_override: Optional[FailurePolicy] = None

    @property
    def policy(self) -> ExecutionPolicy:
        """The policy this runtime was built for."""
        return self._policy

    @property
    def pool(self) -> PersistentPool:
        """The persistent pool (lazily spawned on the first sharded call)."""
        return self._pool

    @property
    def pool_spawn_count(self) -> int:
        """How many times worker processes have been spawned in this runtime.

        The acceptance metric of the pool-reuse contract: one RMA run inside
        a ``Runtime`` block must report at most 1 here, however many
        doubling rounds it took.  Recovery respawns after a worker crash
        also increment it (see :attr:`recovery_stats`).
        """
        return self._pool.spawn_count

    @property
    def recovery_stats(self):
        """The pool's :class:`~repro.parallel.failure.RecoveryStats`.

        All zeros on a failure-free run; the CLI prints it next to the
        effective-policy line when any recovery happened.
        """
        return self._pool.recovery_stats

    def sharded_executor(
        self,
        n_jobs: Optional[int] = None,
        failure: Optional[FailurePolicy] = None,
    ) -> ShardedExecutor:
        """An executor bound to this runtime's pool.

        ``n_jobs`` fixes the shard layout (and therefore the results) and is
        taken verbatim — ``None`` stays serial exactly as it would without a
        runtime, so entering a ``Runtime`` block can never change what a
        call computes (e.g. ``MonteCarloOracle`` passing ``n_jobs=None`` to
        keep small queries serial).  Pool size only caps concurrency, so
        executors with different ``n_jobs`` share the pool without
        affecting each other's outputs.  The executor inherits the policy's
        :class:`~repro.parallel.failure.FailurePolicy` — or an explicit
        ``failure``, or the ambient :meth:`overriding_failure` policy —
        which governs recovery but never results.
        """
        if failure is None:
            failure = (
                self._failure_override
                if self._failure_override is not None
                else self._policy.failure
            )
        return ShardedExecutor(n_jobs, pool=self._pool, failure=failure)

    @contextmanager
    def overriding_failure(self, failure: FailurePolicy) -> Iterator["Runtime"]:
        """Temporarily hand out executors under a different failure policy.

        The allocation server uses this to enforce *per-request deadlines*
        through the supervision machinery: the dispatch loop wraps each
        request's engine work in ``overriding_failure(FailurePolicy.fail_fast(
        shard_timeout_s=remaining))`` so every sharded stage reached inside —
        however deep in the call tree — raises
        :class:`~repro.exceptions.ShardTimeoutError` /
        :class:`~repro.exceptions.WorkerCrashError` promptly instead of
        retrying past the deadline.  Failure policies never influence
        results, so an override cannot either.  Not safe for concurrent use
        from multiple threads (the server's dispatch loop is single-threaded
        by design); overrides nest, restoring the previous one on exit.
        """
        previous = self._failure_override
        self._failure_override = failure
        try:
            yield self
        finally:
            self._failure_override = previous

    def close(self) -> None:
        """Release the worker processes (the runtime stays reusable)."""
        self._pool.close()

    def __enter__(self) -> "Runtime":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for index in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[index] is self:
                del _ACTIVE[index]
                break
        if self not in _ACTIVE:
            self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


def current_runtime() -> Optional[Runtime]:
    """The innermost entered :class:`Runtime`, or ``None`` outside any."""
    return _ACTIVE[-1] if _ACTIVE else None


def acquire_executor(
    n_jobs: Optional[int] = None, runtime: Optional[Runtime] = None
) -> ShardedExecutor:
    """Resolve the executor a sharded call should run on.

    Preference order: the explicitly passed ``runtime``, then the ambient
    :func:`current_runtime`, then a fresh
    :class:`~repro.parallel.executor.ShardedExecutor` whose workers live for
    one call.  ``n_jobs`` always comes from the caller — the runtime
    contributes only the pool, so results do not depend on which branch was
    taken.
    """
    active = runtime if runtime is not None else current_runtime()
    if active is not None:
        return active.sharded_executor(n_jobs)
    return ShardedExecutor(n_jobs)
