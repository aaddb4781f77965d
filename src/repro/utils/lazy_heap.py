"""Lazy-greedy (CELF) selection over int64-encoded elements.

The greedy algorithms in the paper repeatedly select the element with the
largest marginal gain (or marginal rate) of a monotone submodular function.
Because marginal gains only shrink as the solution grows, a stale upper bound
stored in a max-heap is still an upper bound; re-evaluating only the current
top element ("lazy evaluation", Leskovec et al. 2007 / CELF) gives exactly the
same selections as the eager arg-max while avoiding most re-evaluations.

Two selectors share one interface (``push_array``, ``advance_round``,
``pop_best``, ``__len__``) and one decision sequence:

* :class:`BatchedLazyGreedy` is the CELF heap itself.  The initial candidate
  set is inserted in bulk (``push_array``, values from one vectorized engine
  call, one heapify); after that, each stale entry that surfaces is
  refreshed with one scalar ``evaluate(key)`` call, exactly like the
  textbook scalar CELF heap, so refreshes, tie-breaking counters and pop
  sequence are the scalar heap's.  Oracles whose queries must arrive in
  CELF order (a Monte-Carlo oracle drawing from one shared RNG) run on it.
* :class:`DenseLazyGreedy` reproduces that heap's pops with one vectorized
  ``evaluate_all(keys)`` call per round instead of one Python heap step per
  stale entry.  CELF refreshes, in ``(-bound, counter)`` order, exactly the
  stale entries whose stored bound reaches the fresh maximum, and each
  refresh takes the next tie-breaking counter; the dense kernel hands out
  the same counters to the same entries in the same order, so exact ties
  resolve as they do in the heap and every pop is the heap's pop.  An
  optional ``prune`` mask drops elements the caller would discard whenever
  they surface, so one pop is one decision of the greedy loop.

``tests/test_greedy_engine_equivalence.py`` pins both against each other
and :class:`BatchedLazyGreedy` against the scalar reference heap kept in
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


class DenseLazyGreedy:
    """CELF's pop sequence from whole-array evaluations, with optional pruning.

    Parameters
    ----------
    evaluate_all:
        Maps an int64 key array to the keys' *current* values.  Values must
        never grow between rounds (the submodularity every lazy greedy
        relies on).
    prune:
        Optional ``prune(keys, values) -> bool array`` marking elements the
        caller would discard whenever they surface, now and in every later
        round.  They leave for good before the selection; the survivors'
        order is unchanged, so each pop is an element the caller acts on.

    Each element carries CELF's state: its stored bound (the value at its
    last evaluation), its tie-breaking counter and the round it was last
    evaluated in (fresh when that is the current round).  A pop takes the
    maximum ``F`` of the current values, gives every stale element with
    bound ``≥ F`` a new counter in ``(-bound, counter)`` order — the entries
    the heap refreshes before ``F`` surfaces, in the heap's order — and
    returns the element of value ``F`` with the smallest counter.

    Only *active* elements are evaluated (once per round) and pruned.  The
    others wait in a reserve sorted by bound; a bound caps the element's
    current value, so while the active maximum exceeds the best reserve
    bound the reserve can hold neither the winner nor an entry CELF would
    refresh.  Otherwise the next block of the reserve becomes active.  On
    many elements and few selections most elements stay in the reserve.
    """

    #: Fewest reserve elements made active at once.
    MIN_BLOCK = 64

    def __init__(
        self,
        evaluate_all: Callable[[np.ndarray], np.ndarray],
        prune: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        self._evaluate_all = evaluate_all
        self._prune = prune
        self._round = 0
        self._next_counter = 0
        # Active elements as (keys, bounds, counters, rounds) arrays, plus
        # their current values, kept until the round advances.
        self._active = _empty_elements()
        self._values: Optional[np.ndarray] = np.empty(0, dtype=np.float64)
        # Reserve elements, sorted in CELF order (-bound, counter).
        self._reserve = _empty_elements()

    def __len__(self) -> int:
        return int(self._active[0].size + self._reserve[0].size)

    def push_array(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert ``keys`` with their current ``values``, counters in key order."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != keys.shape:
            raise ValueError(f"{values.size} values for {keys.size} keys")
        base = self._next_counter
        self._next_counter = base + keys.size
        pushed = (
            keys,
            values,
            np.arange(base, self._next_counter),
            np.full(keys.size, self._round),
        )
        merged = [np.concatenate(parts) for parts in zip(self._reserve, pushed)]
        order = np.lexsort((merged[2], -merged[1]))
        self._reserve = tuple(array[order] for array in merged)

    def advance_round(self) -> None:
        """Signal that the underlying solution changed (stales every element)."""
        self._round += 1
        self._values = None

    def pop_best(self) -> Optional[Tuple[int, float]]:
        """Pop the key with the largest current value (or ``None`` when empty)."""
        active, values = self._active, self._values
        if values is None:
            values = self._current(active)
        active, values = self._pruned(active, values)
        while True:
            best = values.max() if values.size else -np.inf
            reserve = self._reserve
            if not reserve[0].size or best > reserve[1][0]:
                break
            size = max(self.MIN_BLOCK, values.size)
            block = tuple(array[:size] for array in reserve)
            self._reserve = tuple(array[size:] for array in reserve)
            block, block_values = self._pruned(block, self._current(block))
            active = tuple(np.concatenate(parts) for parts in zip(active, block))
            values = np.concatenate([values, block_values])
        if not values.size:
            self._active, self._values = active, values
            return None
        keys, bounds, counters, rounds = active
        refresh = np.flatnonzero((rounds != self._round) & (bounds >= best))
        if refresh.size:
            refresh = refresh[np.lexsort((counters[refresh], -bounds[refresh]))]
            counters[refresh] = np.arange(self._next_counter, self._next_counter + refresh.size)
            self._next_counter += refresh.size
            bounds[refresh] = values[refresh]
            rounds[refresh] = self._round
        ties = np.flatnonzero(values == best)
        winner = ties[np.argmin(counters[ties])]
        key = int(keys[winner])
        # Positions carry no order (counters do): move the last element into
        # the winner's slot and shorten every array by one.
        last = values.size - 1
        arrays = (*active, values)
        for array in arrays:
            array[winner] = array[last]
        *active, self._values = (array[:last] for array in arrays)
        self._active = tuple(active)
        return key, float(best)

    def _current(self, elements: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Current values: fresh elements keep their bound, stale ones are evaluated."""
        keys, bounds, _counters, rounds = elements
        return np.where(rounds == self._round, bounds, self._evaluate_all(keys))

    def _pruned(
        self, elements: Tuple[np.ndarray, ...], values: np.ndarray
    ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """``elements`` and their ``values`` without the ones ``prune`` drops."""
        if self._prune is None or not values.size:
            return elements, values
        keep = ~self._prune(elements[0], values)
        if keep.all():
            return elements, values
        return tuple(array[keep] for array in elements), values[keep]


def _empty_elements() -> Tuple[np.ndarray, ...]:
    """Empty ``(keys, bounds, counters, rounds)`` arrays."""
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
