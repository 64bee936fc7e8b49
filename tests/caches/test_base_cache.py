"""Tests for the set-associative cache, replacement policies and MSHRs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.base_cache import SetAssociativeCache
from repro.caches.cache_line import CacheLine
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import (
    LRUReplacement,
    RandomReplacement,
    TreePLRUReplacement,
    make_replacement_policy,
)
from repro.caches.write_buffer import WriteBuffer
from repro.coherence.states import E, I, M, S
from repro.common.params import CacheConfig
from repro.common.rng import DeterministicRng


def small_cache(size=1024, assoc=2, line=64, name="l1", replacement="lru"):
    return SetAssociativeCache(CacheConfig(name=name, size_bytes=size,
                                           associativity=assoc,
                                           line_size=line, hit_latency=2,
                                           replacement=replacement))


def eager_twin(cache):
    """The same cache with every way built up front, invalid."""
    twin = SetAssociativeCache(cache.config)
    twin._sets = [[CacheLine() for _ in range(twin.associativity)]
                  for _ in range(twin.num_sets)]
    return twin


def built_lines(cache):
    return sum(len(cache_set) for cache_set in cache._sets)


REPLACEMENTS = st.sampled_from(["lru", "random", "plru"])


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        cache.fill(0x1000, S, now=1)
        line = cache.lookup(0x1040 - 0x40)
        assert line is not None and line.state is S
        assert cache.contains(0x1010)  # same line, different offset

    def test_fill_existing_upgrades_state(self):
        cache = small_cache()
        cache.fill(0x2000, S, now=1)
        cache.fill(0x2000, M, now=2, dirty=True)
        assert cache.state_of(0x2000) is M
        assert cache.occupancy() == 1

    def test_lru_eviction_within_set(self):
        cache = small_cache(size=256, assoc=2, line=64)  # 2 sets, 2 ways
        set_stride = cache.num_sets * 64
        a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
        cache.fill(a, S, now=1)
        cache.fill(b, S, now=2)
        cache.lookup(a, now=3)          # make b the LRU
        _, victim = cache.fill(c, S, now=4)
        assert victim is not None and victim.address == b
        assert cache.contains(a) and cache.contains(c) and not cache.contains(b)

    def test_dirty_eviction_invokes_writeback(self):
        cache = small_cache(size=128, assoc=1, line=64)
        written_back = []
        cache.fill(0x0, M, now=1, dirty=True)
        cache.fill(0x80, S, now=2,
                   writeback_handler=lambda line: written_back.append(
                       line.address))
        assert written_back == [0x0]

    def test_ways_are_built_on_first_fill_in_index_order(self):
        cache = small_cache(size=256, assoc=4, line=64)   # 1 set, 4 ways
        assert built_lines(cache) == 0
        for way, address in enumerate((0x0, 0x40, 0x80)):
            cache.fill(address, S, now=way)
            assert built_lines(cache) == way + 1
            assert cache._sets[0][way].address == address
        # An invalidated way is reused before a new way is built.
        cache.invalidate(0x40)
        cache.invalidate(0x0)
        cache.fill(0xC0, S, now=3)
        assert cache._sets[0][0].address == 0xC0
        assert built_lines(cache) == 3
        assert cache.set_addresses(0) == [0xC0, 0x80]

    def test_invalidate_and_flush(self):
        cache = small_cache()
        cache.fill(0x1000, E, now=1)
        cache.fill(0x2000, S, now=1)
        assert cache.invalidate(0x1000)
        assert not cache.invalidate(0x9999_0000)
        assert cache.flush_all() == 1
        assert cache.occupancy() == 0

    def test_downgrade_and_upgrade(self):
        cache = small_cache()
        cache.fill(0x1000, M, now=1, dirty=True)
        assert cache.downgrade(0x1000, S) is M
        assert cache.state_of(0x1000) is S
        assert cache.upgrade(0x1000, M)
        assert cache.state_of(0x1000) is M
        assert cache.downgrade(0x5000) is None

    def test_probe_does_not_update_lru(self):
        cache = small_cache(size=128, assoc=2, line=64)
        cache.fill(0x0, S, now=1)
        cache.fill(0x80, S, now=2)
        cache.probe(0x0)                 # must NOT refresh line 0x0
        _, victim = cache.fill(0x100, S, now=3)
        assert victim.address == 0x0


class TestReplacementPolicies:
    def test_factory(self):
        rng = DeterministicRng(0)
        assert isinstance(make_replacement_policy("lru", 4, rng),
                          LRUReplacement)
        assert isinstance(make_replacement_policy("random", 4, rng),
                          RandomReplacement)
        assert isinstance(make_replacement_policy("plru", 4, rng),
                          TreePLRUReplacement)
        with pytest.raises(ValueError):
            make_replacement_policy("fifo", 4, rng)

    def test_lru_picks_oldest(self):
        policy = LRUReplacement()
        lines = [CacheLine(address=i, state=S, last_use=use)
                 for i, use in enumerate([5, 2, 9, 7])]
        assert policy.victim(0, lines) == 1

    def test_plru_victim_avoids_most_recent(self):
        policy = TreePLRUReplacement(4)
        lines = [CacheLine(address=i, state=S) for i in range(4)]
        policy.on_access(0, 2, now=1)
        assert policy.victim(0, lines) != 2

    def test_random_in_range(self):
        policy = RandomReplacement(DeterministicRng(1))
        lines = [CacheLine(address=i, state=S) for i in range(8)]
        assert all(0 <= policy.victim(0, lines) < 8 for _ in range(20))


class TestMSHRs:
    def test_merge_same_line(self):
        mshrs = MSHRFile(2)
        first = mshrs.allocate(0x100, now=0, fill_latency=50)
        second = mshrs.allocate(0x100, now=10, fill_latency=50)
        assert first is second
        assert second.merged_requests == 2
        assert mshrs.merges == 1

    def test_full_file_delays_issue(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0x100, now=0, fill_latency=100)
        entry = mshrs.allocate(0x200, now=10, fill_latency=100)
        assert entry.issue_time >= 100
        assert mshrs.full_stalls == 1

    def test_entries_expire(self):
        mshrs = MSHRFile(2)
        mshrs.allocate(0x100, now=0, fill_latency=10)
        assert mshrs.lookup(0x100, now=5) is not None
        assert mshrs.lookup(0x100, now=20) is None
        assert mshrs.occupancy(20) == 0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestWriteBuffer:
    def test_no_stall_when_room(self):
        buffer = WriteBuffer(entries=2)
        assert buffer.push(0x100, now=0, drain_latency=10) == 0
        assert buffer.push(0x200, now=1, drain_latency=10) == 0
        assert buffer.occupancy(1) == 2

    def test_stall_when_full(self):
        buffer = WriteBuffer(entries=1)
        buffer.push(0x100, now=0, drain_latency=50)
        stall = buffer.push(0x200, now=10, drain_latency=50)
        assert stall > 0
        assert buffer.full_stalls == 1


@settings(max_examples=30, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=200),
       invalidations=st.lists(st.integers(min_value=0, max_value=1 << 20),
                              max_size=200),
       replacement=REPLACEMENTS)
def test_cache_occupancy_never_exceeds_capacity(addresses, invalidations,
                                                replacement):
    """Property: a cache never holds more lines than its geometry allows.

    It also places, evicts and invalidates lines exactly as the same cache
    with every way built up front: ways are built in index order, the
    lowest invalid way is reused first, and the replacement policy picks
    victims only in full sets.  Fill ``i`` is followed by invalidating
    one earlier address when ``invalidations[i]`` picks one.
    """
    cache = small_cache(size=512, assoc=2, line=64, replacement=replacement)
    eager = eager_twin(cache)
    assert built_lines(cache) == 0
    for now, address in enumerate(addresses):
        cache_set = cache._sets[cache.set_index_of(address)]
        was_full = (len(cache_set) == cache.associativity
                    and all(line.valid for line in cache_set))
        line, victim = cache.fill(address, S, now=now)
        eager_line, eager_victim = eager.fill(address, S, now=now)
        assert line == eager_line and victim == eager_victim
        assert victim is None or was_full
        line_address = cache.line_address(address)
        assert (cache._tag_index[line_address]
                == eager._tag_index[line_address])
        assert cache.occupancy() <= cache.config.num_lines
        assert cache.contains(address)
        if now < len(invalidations):
            target = addresses[invalidations[now] % (now + 1)]
            assert cache.invalidate(target) == eager.invalidate(target)
        assert cache.resident_lines() == eager.resident_lines()


@settings(max_examples=30, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          min_size=1, max_size=100),
       replacement=REPLACEMENTS)
def test_flush_leaves_cache_empty(addresses, replacement):
    """Flushing partly built sets drops exactly the resident lines."""
    cache = small_cache(size=1024, assoc=4, line=64, replacement=replacement)
    for now, address in enumerate(addresses):
        cache.fill(address, E, now=now)
    resident = {cache.line_address(address) for address in addresses
                if cache.contains(address)}
    assert {line.address for line in cache.resident_lines()} == resident
    assert sorted(address for set_idx in range(cache.num_sets)
                  for address in cache.set_addresses(set_idx)) \
        == sorted(resident)
    assert cache.flush_all() == len(resident)
    assert cache.occupancy() == 0
    assert all(not cache.contains(address) for address in addresses)
    assert all(cache.set_addresses(set_idx) == []
               for set_idx in range(cache.num_sets))
