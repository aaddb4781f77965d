"""An RR-set oracle seen through the plain :class:`RevenueOracle` interface.

The greedy consumers pick their element engine from the oracle type
(:func:`repro.core.batched_greedy.engine_for`).  :class:`CallbackView` has
the same revenue function as the :class:`RRSetOracle` it wraps but is not
one, so the consumers drive it through the per-element callback engine —
the engine Monte-Carlo and exact oracles get.  The equivalence tests and
``benchmarks/bench_greedy_engine.py`` compare the two engines this way on
one RR-set collection.
"""

from __future__ import annotations

from repro.advertising.oracle import RevenueOracle, RRSetOracle


class CallbackView(RevenueOracle):
    """Delegates every query to ``oracle``; hides its :class:`RRSetOracle` type."""

    def __init__(self, oracle: RRSetOracle):
        self._oracle = oracle

    @property
    def num_advertisers(self) -> int:
        return self._oracle.num_advertisers

    def revenue(self, advertiser, seeds):
        return self._oracle.revenue(advertiser, seeds)

    def marginal_revenue(self, advertiser, node, seeds):
        return self._oracle.marginal_revenue(advertiser, node, seeds)
