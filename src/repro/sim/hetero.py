"""The heterogeneous (mixed-scheme) memory system.

A machine whose cores run *different* protection schemes — a MuonTrap big
core beside an unprotected LITTLE core, say — still has exactly one
non-speculative fabric: one shared LLC, one coherence bus, one snoop
filter, one main memory.  What differs per core is the speculative
front-end (filter caches, speculative buffers, taint rules).

:class:`HeterogeneousMemorySystem` therefore builds the shared
:class:`~repro.caches.hierarchy.NonSpeculativeHierarchy` once and
instantiates one *scheme frontend* per protection mode present in the
configuration, each serving only its cores and all wired to the same
hierarchy.  The frontends are the ordinary single-scheme memory systems
(MuonTrap, unprotected, insecure-L0, InvisiSpec, STT) constructed with
``hierarchy=``/``core_ids=``, so a heterogeneous machine reuses every line
of the single-scheme access paths — there is no separate "hetero" timing
model to drift out of sync.

The composite implements the full :class:`~repro.cpu.interface.MemorySystem`
API by dispatching on ``core_id``; :meth:`frontend` additionally lets
:func:`~repro.sim.system.build_system` hand each out-of-order core its own
scheme frontend directly, so the core's hoisted capability probes (STT
taint delays, InvisiSpec validation) reflect that core's scheme and not a
neighbour's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.caches.hierarchy import NonSpeculativeHierarchy
from repro.common.params import SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.cpu.interface import MemoryAccessResult, MemorySystem
from repro.memory.page_table import PageTableManager
from repro.schemes import get_scheme


class HeterogeneousMemorySystem(MemorySystem):
    """Per-core scheme frontends over one shared non-speculative fabric."""

    name = "heterogeneous"

    def __init__(self, config: SystemConfig,
                 page_tables: Optional[PageTableManager] = None,
                 stats: Optional[StatGroup] = None,
                 rng: Optional[DeterministicRng] = None) -> None:
        self.config = config
        stats = stats or StatGroup("heterogeneous")
        self.stats = stats
        rng = rng or DeterministicRng(0)
        self.page_tables = (page_tables if page_tables is not None
                            else PageTableManager(
                                page_size=config.tlb.page_size))
        self.hierarchy = NonSpeculativeHierarchy(
            config, stats=stats.child("hierarchy"), rng=rng)
        # One frontend per scheme present, each serving its cores.  Stats
        # nest under the scheme slug so two frontends never share counters:
        # hetero.muontrap.core0.data_filter..., hetero.unprotected.core1...
        by_scheme: Dict[str, List[int]] = {}
        for core_id in range(config.num_cores):
            by_scheme.setdefault(config.core_config(core_id).scheme,
                                 []).append(core_id)
        self._frontends: Dict[int, MemorySystem] = {}
        self.scheme_frontends: Dict[str, MemorySystem] = {}
        for scheme, core_ids in by_scheme.items():
            spec = get_scheme(scheme)
            frontend = spec.factory(
                config, page_tables=self.page_tables,
                stats=stats.child(spec.slug),
                rng=rng, hierarchy=self.hierarchy, core_ids=core_ids)
            self.scheme_frontends[scheme] = frontend
            for core_id in core_ids:
                self._frontends[core_id] = frontend

    # -- per-core routing -----------------------------------------------------
    def frontend(self, core_id: int) -> MemorySystem:
        return self._frontends[core_id]

    # -- execute-time ---------------------------------------------------------
    def load(self, core_id: int, process_id: int, virtual_address: int,
             now: int, *, speculative: bool, pc: int = 0
             ) -> MemoryAccessResult:
        return self._frontends[core_id].load(
            core_id, process_id, virtual_address, now,
            speculative=speculative, pc=pc)

    def store_address_ready(self, core_id: int, process_id: int,
                            virtual_address: int, now: int, *,
                            speculative: bool, pc: int = 0
                            ) -> MemoryAccessResult:
        return self._frontends[core_id].store_address_ready(
            core_id, process_id, virtual_address, now,
            speculative=speculative, pc=pc)

    def fetch(self, core_id: int, process_id: int, virtual_address: int,
              now: int, *, speculative: bool, pc: int = 0
              ) -> MemoryAccessResult:
        return self._frontends[core_id].fetch(
            core_id, process_id, virtual_address, now,
            speculative=speculative, pc=pc)

    # -- commit-time ----------------------------------------------------------
    def commit_load(self, core_id: int, process_id: int, virtual_address: int,
                    now: int, *, pc: int = 0) -> int:
        return self._frontends[core_id].commit_load(
            core_id, process_id, virtual_address, now, pc=pc)

    def commit_store(self, core_id: int, process_id: int,
                     virtual_address: int, now: int, *, pc: int = 0) -> int:
        return self._frontends[core_id].commit_store(
            core_id, process_id, virtual_address, now, pc=pc)

    def commit_fetch(self, core_id: int, process_id: int,
                     virtual_address: int, now: int, *, pc: int = 0) -> int:
        return self._frontends[core_id].commit_fetch(
            core_id, process_id, virtual_address, now, pc=pc)

    # -- control events -------------------------------------------------------
    def squash(self, core_id: int, now: int) -> None:
        self._frontends[core_id].squash(core_id, now)

    def context_switch(self, core_id: int, now: int) -> None:
        self._frontends[core_id].context_switch(core_id, now)

    def switch_to_process(self, core_id: int, process_id: int,
                          now: int = 0) -> None:
        frontend = self._frontends[core_id]
        switch = getattr(frontend, "switch_to_process", None)
        if switch is not None:
            switch(core_id, process_id, now)
        else:  # pragma: no cover - every frontend implements it today
            frontend.context_switch(core_id, now)

    def sandbox_entry(self, core_id: int, now: int) -> None:
        self._frontends[core_id].sandbox_entry(core_id, now)

    def drain(self, core_id: int, now: int) -> None:
        self._frontends[core_id].drain(core_id, now)
