"""Fault-tolerance policy and recovery telemetry for sharded execution.

:class:`FailurePolicy` describes *what the executor should do when a worker
process dies or a shard hangs*; it never influences results.  The repo's
determinism contract — shard layout and RNG substreams are pure functions of
``(seed, n_jobs)``, independent of which OS process runs which shard — means
any lost shard can be re-executed bit-identically, so recovery costs nothing
in reproducibility.  The policy only chooses *where* the re-execution happens
(a respawned pool, then in-process serial) or whether to fail fast instead.

:class:`RecoveryStats` is the mutable counter object that
:class:`~repro.parallel.executor.PersistentPool` and
:class:`~repro.parallel.executor.ShardedExecutor` update as they recover;
the CLI surfaces it next to the effective-policy printout, mirroring
``spawn_count``.

This module sits below :mod:`repro.runtime.policy` (which embeds a
``FailurePolicy`` in every :class:`~repro.runtime.ExecutionPolicy`) and below
:mod:`repro.parallel.executor` (which enforces it), so it imports nothing but
the exception hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import PolicyError

#: Valid ``on_pool_failure`` modes.
ON_POOL_FAILURE_MODES = ("degrade", "raise")


@dataclass(frozen=True)
class FailurePolicy:
    """Immutable description of how sharded execution reacts to failures.

    Attributes
    ----------
    shard_timeout_s:
        Wall-clock budget per shard, measured from submission (queueing
        behind a ``REPRO_MAX_JOBS``-capped pool counts).  ``None`` (the
        default) disables timeouts — worker *death* is still detected via
        process sentinels, so a default-policy run can no longer hang on a
        dead worker; the timeout exists to additionally catch live-but-stuck
        shards.
    max_retries:
        How many times a lost or timed-out shard is re-executed on a
        respawned pool before the degradation ladder moves on (serial
        in-process execution under ``"degrade"``).  Retries re-use the
        shard's original arguments — same RNG substream, same shard layout —
        so a retried run is bit-identical to a failure-free one.
    retry_backoff_s:
        Base sleep before a pool respawn; the ``k``-th retry of a shard
        sleeps ``retry_backoff_s * k``.  Gives transient conditions (an OOM
        killer sweep, a busy machine) room to clear.
    on_pool_failure:
        ``"degrade"`` (the default): recover — respawn the pool, re-broadcast
        the payloads the pending call needs, re-execute exactly the
        unfinished shards, and fall back to in-process serial execution once
        ``max_retries`` is exhausted.  ``"raise"``: fail fast with
        :class:`~repro.exceptions.WorkerCrashError` /
        :class:`~repro.exceptions.ShardTimeoutError` instead of recovering.
    """

    shard_timeout_s: Optional[float] = None
    max_retries: int = 2
    retry_backoff_s: float = 0.1
    on_pool_failure: str = "degrade"

    def __post_init__(self) -> None:
        if self.shard_timeout_s is not None and not self.shard_timeout_s > 0:
            raise PolicyError(
                f"shard_timeout_s must be positive or None, got {self.shard_timeout_s}"
            )
        if int(self.max_retries) < 0:
            raise PolicyError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise PolicyError(
                f"retry_backoff_s must be non-negative, got {self.retry_backoff_s}"
            )
        if self.on_pool_failure not in ON_POOL_FAILURE_MODES:
            raise PolicyError(
                f"on_pool_failure must be one of {ON_POOL_FAILURE_MODES}, "
                f"got {self.on_pool_failure!r}"
            )

    @classmethod
    def fail_fast(cls, shard_timeout_s: Optional[float] = None) -> "FailurePolicy":
        """The ``"raise"`` preset: surface the first failure, never retry."""
        return cls(
            shard_timeout_s=shard_timeout_s, max_retries=0, on_pool_failure="raise"
        )

    def describe(self) -> str:
        """Compact human-readable form (the CLI's effective-policy line)."""
        timeout = (
            "none" if self.shard_timeout_s is None else f"{self.shard_timeout_s:g}s"
        )
        return (
            f"{self.on_pool_failure}(timeout={timeout}, "
            f"retries={self.max_retries}, backoff={self.retry_backoff_s:g}s)"
        )


#: The default policy (module-level so identity checks and docs agree).
DEFAULT_FAILURE_POLICY = FailurePolicy()


@dataclass
class RecoveryStats:
    """Mutable recovery counters, mirroring ``PersistentPool.spawn_count``.

    One instance lives on each :class:`~repro.parallel.executor.PersistentPool`
    (accumulated across every call that runs on it); a
    :class:`~repro.parallel.executor.ShardedExecutor` reports the one of the
    pool it runs on.  A clean run leaves every counter at zero — the
    equivalence suites assert exactly that.
    """

    worker_crashes: int = 0  #: dead-worker / broken-broadcast events detected
    shard_timeouts: int = 0  #: shards that exceeded ``shard_timeout_s``
    pool_respawns: int = 0  #: pools torn down and respawned for recovery
    shards_rerun: int = 0  #: shards re-executed on a respawned pool
    serial_fallbacks: int = 0  #: shards degraded to in-process serial execution

    @property
    def events(self) -> int:
        """Total recovery events (0 on a failure-free run)."""
        return (
            self.worker_crashes
            + self.shard_timeouts
            + self.pool_respawns
            + self.shards_rerun
            + self.serial_fallbacks
        )

    def describe(self) -> str:
        """One-line summary for logs and the CLI recovery printout."""
        return (
            f"crashes={self.worker_crashes} timeouts={self.shard_timeouts} "
            f"respawns={self.pool_respawns} reruns={self.shards_rerun} "
            f"serial_fallbacks={self.serial_fallbacks}"
        )

    def as_dict(self) -> dict:
        """JSON-ready counter snapshot (the allocation server's reply field)."""
        return {
            "worker_crashes": self.worker_crashes,
            "shard_timeouts": self.shard_timeouts,
            "pool_respawns": self.pool_respawns,
            "shards_rerun": self.shards_rerun,
            "serial_fallbacks": self.serial_fallbacks,
        }
