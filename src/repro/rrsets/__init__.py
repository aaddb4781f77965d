"""Reverse-reachable set machinery (Borgs et al. [12]) adapted to the RM problem.

RR engine architecture
----------------------
The engine is a four-layer pipeline, vectorized end to end over the graph's
CSR arrays:

1. **Generation** (:mod:`~repro.rrsets.generator`) — reverse traversal with
   an int64 visit-stamp array instead of a Python set, edge probabilities
   pre-gathered into in-CSR order, and per-frontier-node Bernoulli blocks
   (or SUBSIM geometric skips for nodes with uniform in-probabilities,
   detected in one ``np.ufunc.reduceat`` pass).  ``generate_batch`` reuses
   the traversal buffers across RR-sets.
2. **Storage** (:class:`~repro.rrsets.collection.RRCollection`) — an
   append-only API backed by a frozen CSR view (concatenated member array +
   offsets + tag array) built lazily on first query; the
   ``(advertiser, node) → RR-sets`` inverted index is one stable
   ``np.argsort`` over flattened keys, queried with ``np.searchsorted``.
3. **Coverage** (:class:`~repro.rrsets.collection.CoverageState`) — greedy
   max-coverage bookkeeping on an ``(h, n)`` int64 marginal matrix and a
   boolean covered mask: construction is a single ``np.bincount``,
   ``add_seed`` a handful of fancy-indexing scatter ops.
4. **Estimation** (:mod:`~repro.rrsets.estimators`,
   :class:`~repro.advertising.oracle.RRSetOracle`) — covered-index sets as
   sorted int64 arrays merged with ``np.union1d``.

The engine consumes randomness in exactly the same order as the seed
implementation (preserved in ``tests/reference/rrsets_legacy.py``), so a
fixed seed yields bit-identical RR-sets —
``tests/test_rr_engine_equivalence.py`` pins this and
``benchmarks/bench_rr_engine.py`` tracks the speedup.
"""

from repro.rrsets.generator import RRProvenance, RRSetGenerator, SubsimRRGenerator
from repro.rrsets.collection import RRCollection, CoverageState
from repro.rrsets.store import MaintenanceReport, RRStore, SlotProvenance
from repro.rrsets.uniform import UniformRRSampler, PerAdvertiserRRSampler
from repro.rrsets.estimators import (
    estimate_total_revenue,
    estimate_advertiser_revenue,
    estimate_spread,
)

__all__ = [
    "RRProvenance",
    "RRSetGenerator",
    "SubsimRRGenerator",
    "RRCollection",
    "CoverageState",
    "MaintenanceReport",
    "RRStore",
    "SlotProvenance",
    "UniformRRSampler",
    "PerAdvertiserRRSampler",
    "estimate_total_revenue",
    "estimate_advertiser_revenue",
    "estimate_spread",
]
