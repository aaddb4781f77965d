"""Lazy-greedy (CELF-style) priority queue over int64-encoded elements.

The greedy algorithms in the paper repeatedly select the element with the
largest marginal gain (or marginal rate) of a monotone submodular function.
Because marginal gains only shrink as the solution grows, a stale upper bound
stored in a max-heap is still an upper bound; re-evaluating only the current
top element ("lazy evaluation", Leskovec et al. 2007 / CELF) gives exactly the
same selections as the eager arg-max while avoiding most re-evaluations.

:class:`BatchedLazyGreedy` is the one heap every greedy loop runs on.  The
initial candidate set is inserted in bulk (``push_array``, values from one
vectorized engine call, one heapify); after that, each stale entry that
surfaces is refreshed with one scalar ``evaluate(key)`` call, exactly like
the textbook scalar CELF heap, so refreshes, tie-breaking counters and pop
sequence are the scalar heap's.  ``tests/test_greedy_engine_equivalence.py``
pins this against the scalar reference heap kept in
``tests/reference/lazy_heap.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

import numpy as np


class BatchedLazyGreedy:
    """CELF heap over int64-encoded elements with bulk insertion.

    Parameters
    ----------
    evaluate:
        Callable mapping one element key to its *current* marginal value.
        It is called once per stale entry that surfaces, in surfacing order
        (an RNG-backed oracle therefore sees the scalar CELF query order).

    ``advance_round`` marks every entry stale, ``pop_best`` returns the
    element with the largest current value, popped keys leave the heap, and
    exact value ties resolve by insertion / refresh order.
    """

    def __init__(self, evaluate: Callable[[int], float]):
        self._evaluate = evaluate
        # Entries are plain tuples (-value, counter, key, round_evaluated):
        # tuple comparison gives the (-value, counter) max-heap order without
        # dataclass overhead on the hot path.  Counters are unique, so the
        # order is total; a refresh replaces its entry, so each key has one.
        self._heap: List[Tuple[float, int, int, int]] = []
        self._round = 0
        self._next_counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push_array(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk-insert ``keys`` with their current ``values``.

        Heapifies once instead of pushing one entry at a time.  Ties between
        equal values resolve by insertion order, exactly like one scalar push
        per key.
        """
        key_list = np.asarray(keys, dtype=np.int64).tolist()
        value_list = np.asarray(values, dtype=np.float64).tolist()
        if len(value_list) != len(key_list):
            raise ValueError(f"{len(value_list)} values for {len(key_list)} keys")
        base = self._next_counter
        self._next_counter = base + len(key_list)
        self._heap.extend(
            (-value, base + offset, key, self._round)
            for offset, (key, value) in enumerate(zip(key_list, value_list))
        )
        heapq.heapify(self._heap)

    def advance_round(self) -> None:
        """Signal that the underlying solution changed (stales every entry)."""
        self._round += 1

    def pop_best(self) -> Optional[Tuple[int, float]]:
        """Pop the key with the largest current marginal value (or ``None``)."""
        heap = self._heap
        evaluate, current_round = self._evaluate, self._round
        while heap:
            entry = heap[0]
            key = entry[2]
            if entry[3] == current_round:
                heapq.heappop(heap)
                return key, -entry[0]
            # Stale: refresh in place (pop + push of the new entry).
            refreshed = (-evaluate(key), self._next_counter, key, current_round)
            heapq.heapreplace(heap, refreshed)
            self._next_counter += 1
        return None
