"""Per-layer attribution of a simulation's host time, from outside the program.

:class:`LayerTrace` wraps the public methods of a built system's component
instances (caches, filter caches, TLBs, coherence, prefetchers, DRAM and
the scheme's memory-system frontend) with timing shims.  It must be
installed after ``build_system`` and before ``Simulator.run``: the packed
and vectorized core loops hoist the memory system's bound methods at the
start of every run call, so instance attributes set here are the ones the
loop calls.  Simulated results are unchanged; only host time is added.

Every shim pushes a span onto one stack.  A layer's self time is the
duration of its spans minus the time of the spans they caused, so the
self times of all layers plus the time spent outside every shim (the core
loop, ``cpu.self_s``) add up to the traced wall time.  Calls made through
callbacks that a component bound at construction time (InvisiSpec's
validation hook, STT's delayed-forward counter, the bus's filter
invalidation listeners) bypass the shims and are charged to the caller.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.caches.base_cache import SetAssociativeCache
from repro.caches.hierarchy import NonSpeculativeHierarchy
from repro.coherence.bus import CoherenceBus
from repro.coherence.protocol import CoherenceController
from repro.core.filter_cache import SpeculativeFilterCache
from repro.cpu.interface import MemorySystem
from repro.memory.main_memory import MainMemory
from repro.prefetch.base import Prefetcher
from repro.tlb.page_walker import MMU, PageTableWalker

#: The layers whose self time is reported, in report order.  ``cpu`` is
#: the remainder: traced wall time not covered by any shim.
LAYERS = ("cpu", "core", "core.filter", "baselines", "caches", "tlb",
          "coherence", "prefetch", "memory")

_FRONTEND_METHODS = ("load", "store_address_ready", "fetch", "commit_load",
                     "commit_store", "commit_fetch", "squash",
                     "context_switch", "sandbox_entry", "drain")

#: (class, self-time layer, call-count prefix, methods).  Frontends are
#: handled separately: their layer depends on the scheme's package.
_RULES: Tuple[Tuple[type, str, str, Tuple[str, ...]], ...] = (
    (SpeculativeFilterCache, "core.filter", "core.filter",
     ("lookup", "fill", "mark_committed", "flush")),
    (SetAssociativeCache, "caches", "caches", ("lookup", "fill")),
    (NonSpeculativeHierarchy, "caches", "caches.hierarchy",
     ("access", "read_for_filter", "commit_fill_l1", "commit_store")),
    (NonSpeculativeHierarchy, "prefetch", "prefetch.hierarchy",
     ("train_l2_prefetcher", "notify_commit_prefetch",
      "flush_speculative_training")),
    (MMU, "tlb", "tlb", ("translate_address", "commit_translation")),
    (PageTableWalker, "tlb", "tlb", ("walk",)),
    (CoherenceBus, "coherence", "coherence",
     ("snoop", "broadcast_filter_invalidate", "record_nack")),
    (CoherenceController, "coherence", "coherence.controller",
     ("read", "write", "asynchronous_exclusive_upgrade")),
    (Prefetcher, "prefetch", "prefetch", ("train",)),
    (MainMemory, "memory", "memory", ("read", "write")),
)

#: Components with nothing to wrap below them: the walk stops there.
_LEAVES = (SpeculativeFilterCache, SetAssociativeCache, MainMemory,
           Prefetcher, PageTableWalker)

#: Packages whose objects (statistics, parameters, RNGs, page tables) hold
#: no component worth wrapping.
_SKIPPED_PACKAGES = ("repro.common.", "repro.memory.page_table")


def _frontend_layer(memory_system: MemorySystem) -> str:
    module = type(memory_system).__module__
    return "core" if module.startswith("repro.core.") else "baselines"


def _components(root) -> List[object]:
    """Every ``repro`` object reachable from ``root`` through attributes."""
    found: List[object] = []
    seen = set()
    pending = [root]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.values())
            continue
        if isinstance(item, (list, tuple)):
            pending.extend(item)
            continue
        module = type(item).__module__
        if (not module.startswith("repro.") or id(item) in seen
                or module.startswith(_SKIPPED_PACKAGES)):
            continue
        seen.add(id(item))
        found.append(item)
        if not isinstance(item, _LEAVES):
            pending.extend(getattr(item, "__dict__", {}).values())
    return found


class LayerTrace:
    """Span stack, self times and call counts shared by every shim."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Outcome counts observed on return values (hits, empty snoops).
        self.outcomes: Counter = Counter()
        #: Child time accumulated by the open spans; the bottom entry is
        #: the time covered by top-level shims.
        self._stack: List[float] = [0.0]
        self.wall_s = 0.0
        self.l1d_hits = 0
        self.l1d_accesses = 0

    # -- installation ---------------------------------------------------------
    def instrument(self, system) -> None:
        """Wrap the components of a built system."""
        for component in _components(system.memory_system):
            if isinstance(component, MemorySystem):
                layer = _frontend_layer(component)
                for method in _FRONTEND_METHODS:
                    self._wrap(component, method, layer, layer)
                continue
            for cls, layer, prefix, methods in _RULES:
                if isinstance(component, cls):
                    for method in methods:
                        self._wrap(component, method, layer, prefix)

    def _wrap(self, component, method: str, layer: str, prefix: str) -> None:
        original = getattr(component, method)
        key = f"{prefix}.{method}"
        observe = self._observer(key)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def shim(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
            if observe is not None:
                observe(result)
            return result

        setattr(component, method, shim)

    def _observer(self, key: str) -> Optional[Callable[[object], None]]:
        outcomes = self.outcomes
        if key == "core.filter.lookup":
            def observe(result) -> None:
                if result.hit:
                    outcomes["core.filter.hits"] += 1
            return observe
        if key == "coherence.snoop":
            def observe(result) -> None:
                if not result.any_copy:
                    outcomes["coherence.snoop.empty"] += 1
            return observe
        return None

    # -- running --------------------------------------------------------------
    def run(self, system, simulate: Callable[[], object]):
        """Instrument ``system``, then time ``simulate()`` under the shims."""
        self.instrument(system)
        start = time.perf_counter()
        result = simulate()
        self.wall_s += time.perf_counter() - start
        if len(self._stack) != 1:
            raise RuntimeError(
                f"unbalanced span stack: depth {len(self._stack)}")
        hierarchy = system.hierarchy
        if hierarchy is not None:
            for core_id in range(system.num_cores):
                l1d = hierarchy.l1d(core_id)
                self.l1d_hits += l1d.hits
                self.l1d_accesses += l1d.hits + l1d.misses
        return result

    # -- results --------------------------------------------------------------
    @property
    def covered_s(self) -> float:
        """Time spent inside top-level shims."""
        return self._stack[0]

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, ``cpu`` being the uncovered remainder."""
        times = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        times["cpu"] = self.wall_s - self.covered_s
        return times

    def closure_error(self) -> float:
        """|cpu + sum of layer self times - traced wall|, in seconds.

        The two sides are accumulated separately (self times per span,
        ``covered_s`` per top-level span), so they agree only if every
        span was closed and charged once.
        """
        return abs(sum(self.layer_self_s().values()) - self.wall_s)

    def ratios(self) -> Dict[str, float]:
        calls = self.calls
        return {
            "core.filter.hit_ratio": _ratio(
                self.outcomes["core.filter.hits"],
                calls["core.filter.lookup"]),
            "caches.l1d.hit_ratio": _ratio(self.l1d_hits, self.l1d_accesses),
            "tlb.hit_ratio": 1.0 - _ratio(calls["tlb.walk"],
                                          calls["tlb.translate_address"])
            if calls["tlb.translate_address"] else 0.0,
            "coherence.snoop.empty_ratio": _ratio(
                self.outcomes["coherence.snoop.empty"],
                calls["coherence.snoop"]),
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
