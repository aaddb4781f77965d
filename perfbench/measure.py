"""Summary statistics, memory and host facts shared by the workloads."""

from __future__ import annotations

import os
import platform
import statistics
import sys
from typing import Dict, Optional, Sequence

import numpy

from repro.parallel.executor import MAX_JOBS_ENV, _default_start_method
from repro.utils.resources import peak_rss_bytes

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples beyond it.

    Returns ``{"value", "percentile", "samples"}``, or ``None`` when the
    sample is too small to have such a percentile.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return None
    index = count - TAIL_BEYOND - 1
    return {
        "value": float(ordered[index]),
        "percentile": 100.0 * (index + 1) / count,
        "samples": count,
    }


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark, with all its digits."""
    return peak_rss_bytes() / (1024.0 * 1024.0)


def host_facts(n_jobs: int) -> Dict[str, object]:
    """What a reader needs to compare a result with one from another host."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "start_method": _default_start_method(),
        "n_jobs": n_jobs,
        MAX_JOBS_ENV: os.environ.get(MAX_JOBS_ENV),
    }
