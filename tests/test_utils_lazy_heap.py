"""Tests for the scalar reference lazy-greedy heap, incl. equivalence with an eager arg-max."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.lazy_heap import LazyMarginalHeap


class TestBasicOperations:
    def test_pop_returns_largest(self):
        values = {"a": 1.0, "b": 5.0, "c": 3.0}
        heap = LazyMarginalHeap(lambda key: values[key])
        heap.push_many(values)
        assert heap.pop_best()[0] == "b"

    def test_pop_order_is_descending_when_static(self):
        values = {"a": 1.0, "b": 5.0, "c": 3.0}
        heap = LazyMarginalHeap(lambda key: values[key])
        heap.push_many(values)
        order = [heap.pop_best()[0] for _ in range(3)]
        assert order == ["b", "c", "a"]

    def test_empty_heap_returns_none(self):
        heap = LazyMarginalHeap(lambda key: 0.0)
        assert heap.pop_best() is None

    def test_len_and_contains(self):
        heap = LazyMarginalHeap(lambda key: 1.0)
        heap.push("x")
        assert len(heap) == 1
        assert "x" in heap
        heap.pop_best()
        assert len(heap) == 0
        assert "x" not in heap

    def test_remove_skips_key(self):
        values = {"a": 1.0, "b": 5.0}
        heap = LazyMarginalHeap(lambda key: values[key])
        heap.push_many(values)
        heap.remove("b")
        assert heap.pop_best()[0] == "a"

    def test_peek_does_not_remove(self):
        heap = LazyMarginalHeap(lambda key: {"a": 2.0}[key])
        heap.push("a")
        assert heap.peek_best()[0] == "a"
        assert len(heap) == 1

    def test_push_with_explicit_value(self):
        heap = LazyMarginalHeap(lambda key: 0.0)
        heap.push("a", value=9.0)
        key, value = heap.pop_best()
        assert key == "a"
        assert value == 9.0


class TestLazyRefresh:
    def test_stale_values_are_refreshed_after_round_advance(self):
        values = {"a": 10.0, "b": 8.0}
        heap = LazyMarginalHeap(lambda key: values[key])
        heap.push_many(values)
        # Simulate submodular decay: "a" loses most of its value.
        values["a"] = 1.0
        heap.advance_round()
        assert heap.pop_best()[0] == "b"

    def test_refresh_keeps_all_keys(self):
        values = {"a": 10.0, "b": 8.0, "c": 6.0}
        heap = LazyMarginalHeap(lambda key: values[key])
        heap.push_many(values)
        values["a"] = 0.0
        heap.advance_round()
        popped = {heap.pop_best()[0] for _ in range(3)}
        assert popped == {"a", "b", "c"}


@settings(max_examples=60, deadline=None)
@given(
    initial=st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    decays=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=12),
)
def test_lazy_selection_matches_eager_argmax(initial, decays):
    """Lazy selection must equal an eager arg-max when values only decrease.

    This mirrors how the greedy algorithms use the heap: after every
    selection, the remaining values may shrink (submodularity) and the heap is
    told via ``advance_round``.
    """
    values = dict(initial)
    heap = LazyMarginalHeap(lambda key: values[key])
    heap.push_many(values)

    eager_keys = set(values)
    selections_lazy = []
    selections_eager = []
    decay_iter = iter(decays * (len(values) // len(decays) + 1))

    for _ in range(len(initial)):
        popped = heap.pop_best()
        assert popped is not None
        selections_lazy.append(popped[0])

        best_eager = max(sorted(eager_keys), key=lambda key: (values[key]))
        selections_eager.append(best_eager)
        eager_keys.discard(best_eager)

        # Apply a uniform decay to every remaining value (keeps ordering
        # identical between the two strategies while still exercising
        # re-evaluation).
        factor = next(decay_iter)
        for key in eager_keys:
            values[key] *= factor
        heap.advance_round()

    lazy_values = sorted(initial[key] for key in selections_lazy)
    eager_values = sorted(initial[key] for key in selections_eager)
    assert np.allclose(lazy_values, eager_values)
