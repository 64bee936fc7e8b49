"""A set-associative cache with MESI state and MSHRs.

This is the building block for the non-speculative L1 instruction, L1 data
and shared L2 caches.  It deliberately models only metadata (tags, state,
replacement, timing); data values never matter for the side channels the
paper studies, only the presence, state and timing of lines.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.caches.cache_line import CacheLine
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import make_replacement_policy
from repro.coherence.states import CoherenceState, E, I, M, S
from repro.common.addresses import block_align
from repro.common.params import CacheConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup


class SetAssociativeCache:
    """Tag/state array of a single cache level."""

    def __init__(self, config: CacheConfig,
                 stats: Optional[StatGroup] = None,
                 rng: Optional[DeterministicRng] = None) -> None:
        self.config = config
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a power of two")
        # Precomputed address arithmetic for the hot lookup path.
        self._offset_mask = -self.line_size          # == ~(line_size - 1)
        self._line_shift = self.line_size.bit_length() - 1
        rng = rng or DeterministicRng(0)
        self._policy = make_replacement_policy(
            config.replacement, config.associativity, rng)
        # Ways are built on first fill: a set holds only the ways it has
        # ever used, in way order, so construction costs nothing per line.
        # Every way not yet built is invalid and sits above every built
        # one, so appending one is exactly the "first invalid way" choice.
        self._sets: List[List[CacheLine]] = [[] for _ in range(self.num_sets)]
        # Tag index: line address -> (set index, way) of the line installed
        # by the last fill of that address.  Entries are verified against
        # the line before use (fills and invalidations may leave them
        # stale), so lookups stay exact while running in O(1) instead of
        # scanning the set.  An address can be indexed at most once: fills
        # are the only operation that makes a line valid, and they re-index.
        self._tag_index: dict = {}
        self.mshrs = MSHRFile(config.mshrs)
        stats = stats or StatGroup(config.name)
        self.stats = stats
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._evictions = stats.counter("evictions")
        self._writebacks = stats.counter("writebacks")
        self._invalidations = stats.counter("invalidations")
        self._fills = stats.counter("fills")
        self._prefetch_fills = stats.counter("prefetch_fills")

    # -- address helpers ---------------------------------------------------
    def line_address(self, address: int) -> int:
        return address & self._offset_mask

    def set_index_of(self, address: int) -> int:
        return (address >> self._line_shift) % self.num_sets

    def _set_for(self, address: int) -> List[CacheLine]:
        return self._sets[self.set_index_of(address)]

    # -- lookup / fill / invalidate -----------------------------------------
    def lookup(self, address: int, now: int = 0,
               update_replacement: bool = True) -> Optional[CacheLine]:
        """Return the valid line holding ``address``, or None on a miss."""
        line_addr = address & self._offset_mask
        slot = self._tag_index.get(line_addr)
        if slot is None:
            return None
        set_idx, way = slot
        line = self._sets[set_idx][way]
        if line.address != line_addr or line.state is I:
            return None
        if update_replacement:
            line.last_use = now
            self._policy.on_access(set_idx, way, now)
        return line

    def probe(self, address: int) -> Optional[CacheLine]:
        """Lookup without disturbing replacement state (used by snoops)."""
        return self.lookup(address, update_replacement=False)

    def record_hit(self) -> None:
        self._hits.increment()

    def record_miss(self) -> None:
        self._misses.increment()

    # -- observability -------------------------------------------------------
    def attach_tracer(self, tracer, unit: str,
                      core: Optional[int] = None) -> None:
        """Emit trace events for this cache's hits/misses/fills/evictions.

        The wrappers are *instance* attributes shadowing the class methods,
        so the class — and every untraced instance — keeps executing the
        plain methods with no guard at all (the zero-cost-when-disabled
        contract of :mod:`repro.telemetry`).  Hit/miss events are stamped
        with the tracer's cycle cursor; fills and evictions carry the
        fill's own timestamp.
        """
        emit = tracer.emit
        inner_hit = self.record_hit
        inner_miss = self.record_miss
        inner_fill = self.fill
        inner_invalidate = self.invalidate

        def record_hit() -> None:
            inner_hit()
            emit("cache", "hit", core=core, unit=unit)

        def record_miss() -> None:
            inner_miss()
            emit("cache", "miss", core=core, unit=unit)

        def fill(address, state, now=0, *args, **kwargs):
            line, victim = inner_fill(address, state, now, *args, **kwargs)
            emit("cache", "fill", cycle=now, core=core, address=line.address,
                 unit=unit, state=state.name)
            if victim is not None:
                emit("cache", "evict", cycle=now, core=core,
                     address=victim.address, unit=unit, dirty=victim.dirty)
            return line, victim

        def invalidate(address):
            present = inner_invalidate(address)
            if present:
                emit("cache", "invalidate", core=core,
                     address=self.line_address(address), unit=unit)
            return present

        self.record_hit = record_hit
        self.record_miss = record_miss
        self.fill = fill
        self.invalidate = invalidate

    def fill(self, address: int, state: CoherenceState, now: int = 0,
             dirty: bool = False, prefetched: bool = False,
             ready_at: int = 0,
             writeback_handler: Optional[Callable[[CacheLine], None]] = None
             ) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Install ``address`` in state ``state``; returns (line, victim).

        The victim is a *copy* of the evicted line (or None); if it was dirty
        the ``writeback_handler`` is invoked so the next level can accept the
        data.
        """
        line_addr = self.line_address(address)
        cache_set = self._set_for(address)
        set_idx = self.set_index_of(address)
        existing = self.lookup(address, now)
        if existing is not None:
            existing.state = state
            existing.dirty = existing.dirty or dirty
            existing.touch(now)
            return existing, None
        # Prefer an invalid way before consulting the replacement policy,
        # which only ever sees full sets.
        victim_way = None
        for way, line in enumerate(cache_set):
            if line.state is I:
                victim_way = way
                break
        if victim_way is None:
            if len(cache_set) < self.associativity:
                victim_way = len(cache_set)
                cache_set.append(CacheLine())
            else:
                victim_way = self._policy.victim(set_idx, cache_set)
        victim_line = cache_set[victim_way]
        victim_copy: Optional[CacheLine] = None
        old_address = victim_line.address
        if victim_line.state is not I:
            victim_copy = CacheLine(
                address=victim_line.address, state=victim_line.state,
                dirty=victim_line.dirty, last_use=victim_line.last_use,
                prefetched=victim_line.prefetched,
                committed=victim_line.committed,
                virtual_tag=victim_line.virtual_tag,
                owner_process=victim_line.owner_process,
                fill_level=victim_line.fill_level)
            self._evictions.increment()
            if victim_line.dirty:
                self._writebacks.increment()
                if writeback_handler is not None:
                    writeback_handler(victim_copy)
        if self._tag_index.get(old_address) == (set_idx, victim_way):
            del self._tag_index[old_address]
        self._tag_index[line_addr] = (set_idx, victim_way)
        victim_line.address = line_addr
        victim_line.state = state
        victim_line.dirty = dirty
        victim_line.prefetched = prefetched
        victim_line.ready_at = ready_at
        victim_line.committed = False
        victim_line.virtual_tag = None
        victim_line.owner_process = None
        victim_line.se_upgrade_pending = False
        victim_line.fill_level = None
        victim_line.insert_time = now
        victim_line.touch(now)
        self._policy.on_access(set_idx, victim_way, now)
        self._fills.increment()
        if prefetched:
            self._prefetch_fills.increment()
        return victim_line, victim_copy

    def invalidate(self, address: int) -> bool:
        """Invalidate the line holding ``address`` if present."""
        line = self.probe(address)
        if line is None:
            return False
        line.invalidate()
        self._invalidations.increment()
        return True

    def downgrade(self, address: int,
                  to_state: CoherenceState = S) -> Optional[CoherenceState]:
        """Move the line to ``to_state`` (snoop response); returns old state."""
        line = self.probe(address)
        if line is None:
            return None
        old_state = line.state
        if to_state is I:
            line.invalidate()
            self._invalidations.increment()
        else:
            line.state = to_state
        return old_state

    def upgrade(self, address: int, to_state: CoherenceState,
                now: int = 0) -> bool:
        """Promote a present line (e.g. S -> M on a committed store)."""
        line = self.lookup(address, now)
        if line is None:
            return False
        line.state = to_state
        if to_state is M:
            line.dirty = True
        return True

    def flush_all(self) -> int:
        """Invalidate every line; returns the number of lines dropped."""
        dropped = 0
        for cache_set in self._sets:
            for line in cache_set:
                if line.valid:
                    line.invalidate()
                    dropped += 1
        return dropped

    # -- introspection helpers (used heavily by tests and attacks) ----------
    def contains(self, address: int) -> bool:
        return self.probe(address) is not None

    def state_of(self, address: int) -> CoherenceState:
        line = self.probe(address)
        return line.state if line is not None else I

    def resident_lines(self) -> List[CacheLine]:
        return [line for cache_set in self._sets for line in cache_set
                if line.valid]

    def occupancy(self) -> int:
        return len(self.resident_lines())

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    def set_addresses(self, set_idx: int) -> List[int]:
        """Addresses of the valid lines in one set (attack helper)."""
        if not 0 <= set_idx < self.num_sets:
            raise IndexError("set index out of range")
        return [line.address for line in self._sets[set_idx] if line.valid]
