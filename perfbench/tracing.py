"""Timing shims installed around the library's layer boundaries.

The library has no span layer of its own yet, so the traced run wraps the
functions each layer exposes, from outside, at the place where their caller
looks them up: a module-level name is replaced in the module that calls it
(``repro.core.search.threshold_greedy``, not ``repro.core.threshold_greedy``),
a method is replaced on its class.  :meth:`Tracer.installed` puts every
original object back on exit, so the library is unchanged afterwards.

A *span* shim records each call's wall duration and its self time (the
duration minus the time of spans nested inside it, per thread).  A *count*
shim only counts calls; it is used for the hot per-element calls where a
clock read per call would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

_MISSING = object()


class Shim(NamedTuple):
    """One wrapped attribute: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attribute: str
    name: str
    kind: str  # "span", "count", or "generate" (a span that also sums edges examined)


#: Every shim the traced run installs.  Names are the per-layer metric stems.
SHIMS: Tuple[Shim, ...] = (
    # repro.rrsets
    Shim("repro.rrsets.uniform:UniformRRSampler", "generate_collection", "rrsets.generate", "span"),
    Shim("repro.rrsets.generator:RRSetGenerator", "generate_batch_parallel", "rrsets.generate", "generate"),
    Shim("repro.rrsets.store:RRStore", "apply_deltas", "rrsets.apply_deltas", "span"),
    Shim("repro.serve.server", "estimate_advertiser_revenue", "rrsets.spread_estimate", "span"),
    Shim("repro.rrsets.collection:CoverageState", "add_seed", "collection.seeds_added", "count"),
    # repro.core (the solvers look these names up in their own modules)
    Shim("repro.core.sampling_solver", "rm_with_oracle", "core.rm_with_oracle", "span"),
    Shim("repro.serve.server", "rm_with_oracle", "core.rm_with_oracle", "span"),
    Shim("repro.core.sampling_solver", "seek_upper_bound", "core.seek_ub", "span"),
    Shim("repro.core.search", "gamma_max", "core.gamma_max", "span"),
    Shim("repro.core.search", "threshold_greedy", "core.threshold_greedy", "span"),
    Shim("repro.core.threshold_greedy", "fill", "core.fill", "span"),
    # repro.utils.lazy_heap
    Shim("repro.utils.lazy_heap:BatchedLazyGreedy", "pop_best", "lazy_heap.pops", "count"),
    # repro.baselines
    Shim("repro.baselines.ti_common", "pilot_pool", "baselines.pilot", "span"),
    # repro.parallel: the barrier broadcast behind PersistentPool.broadcast and
    # behind the first use of each payload by PersistentPool.run.
    Shim("repro.parallel.executor:PersistentPool", "_broadcast", "parallel.broadcast", "span"),
)


def resolve_owner(owner: str) -> Any:
    """The module or class named by a shim's ``owner`` field."""
    module_name, _, class_name = owner.partition(":")
    # importlib, not attribute access: ``repro.core.threshold_greedy`` and
    # ``repro.core.search``-level names are shadowed by the function
    # re-exports in ``repro.core.__init__``.
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class Tracer:
    """In-memory spans and counters keyed by shim name."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.edges_examined = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span of ``name``."""
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1].child += elapsed
            with self._lock:
                self.durations[name].append(elapsed)
                self.self_time[name] += elapsed - frame.child

    def total(self, name: str) -> float:
        """Summed wall seconds of every span of ``name``."""
        return float(sum(self.durations.get(name, ())))

    def calls(self, name: str) -> int:
        """Number of spans (or counted calls) of ``name``."""
        if name in self.counts:
            return self.counts[name]
        return len(self.durations.get(name, ()))

    # ------------------------------------------------------------------ #
    def _wrap(self, shim: Shim, original: Callable) -> Callable:
        tracer = self
        if shim.kind == "count":

            @functools.wraps(original)
            def counted(*args, **kwargs):
                with tracer._lock:
                    tracer.counts[shim.name] += 1
                return original(*args, **kwargs)

            return counted

        if shim.kind == "generate":
            # TI result metadata carries no edge count; read the generator's
            # own counter around each pool fill instead.
            @functools.wraps(original)
            def generating(generator, *args, **kwargs):
                before = generator.edges_examined
                with tracer.span(shim.name):
                    result = original(generator, *args, **kwargs)
                with tracer._lock:
                    tracer.edges_examined += generator.edges_examined - before
                return result

            return generating

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with tracer.span(shim.name):
                return original(*args, **kwargs)

        return spanned

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every shim in :data:`SHIMS`; restore the originals on exit."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for shim in SHIMS:
                owner = resolve_owner(shim.owner)
                own = vars(owner).get(shim.attribute, _MISSING)
                saved.append((owner, shim.attribute, own))
                setattr(owner, shim.attribute, self._wrap(shim, getattr(owner, shim.attribute)))
            yield self
        finally:
            for owner, attribute, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, own)
