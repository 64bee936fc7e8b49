"""Tests for the content-hash-keyed trace cache."""

import pytest

from repro.workloads.cache import (
    TRACE_CACHE_ENV,
    TraceCache,
    active_trace_cache,
    reset_trace_cache,
    trace_key,
)
from repro.workloads.generator import TraceGenerator, generate_workload
from repro.workloads.profiles import get_profile


@pytest.fixture(autouse=True)
def _fresh_cache_state(monkeypatch):
    """Isolate every test from the process-wide cache singleton."""
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    reset_trace_cache()
    yield
    reset_trace_cache()


class TestTraceKey:
    def test_key_depends_on_every_generation_input(self):
        mcf = get_profile("mcf")
        base = trace_key(mcf, 1000, 1, 0)
        assert trace_key(mcf, 1000, 1, 0) == base
        assert trace_key(mcf, 2000, 1, 0) != base
        assert trace_key(mcf, 1000, 2, 0) != base
        assert trace_key(mcf, 1000, 1, 3) != base
        assert trace_key(get_profile("lbm"), 1000, 1, 0) != base


class TestTraceCache:
    def test_memory_tier_round_trip(self):
        cache = TraceCache()
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(300)
        key = trace_key(get_profile("mcf"), 300, 2, 0)
        assert cache.get(key) is None
        cache.put(key, workload)
        assert cache.get(key) is workload
        assert cache.hits == 1 and cache.misses == 1

    def test_memory_tier_is_lru_bounded(self):
        cache = TraceCache(memory_entries=2)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("a", workload)
        cache.put("b", workload)
        cache.put("c", workload)
        assert cache.get("a") is None
        assert cache.get("b") is workload
        assert cache.get("c") is workload

    def test_disk_tier_round_trip(self, tmp_path):
        writer = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("lbm"), seed=9).generate(200)
        key = trace_key(get_profile("lbm"), 200, 9, 0)
        writer.put(key, workload)
        # A fresh cache (fresh process, conceptually) reads it back.
        reader = TraceCache(root=tmp_path)
        loaded = reader.get(key)
        assert loaded is not None
        assert loaded.benchmark == workload.benchmark
        assert [t.ops for t in loaded] == [t.ops for t in workload]
        # The packed view survives pickling too.
        assert loaded.thread(0).packed().unpack() == workload.thread(0).ops

    def test_disk_tier_evicts_corrupt_entries(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        (tmp_path / "deadbeef.pkl").write_bytes(b"not a pickle")
        assert cache.get("deadbeef") is None
        # Evicted, not skipped: the next put rewrites the entry cleanly
        # instead of failing to unpickle on every future run.
        assert not (tmp_path / "deadbeef.pkl").exists()

    def test_truncated_pickle_is_evicted(self, tmp_path):
        writer = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=3).generate(100)
        writer.put("torn", workload)
        path = tmp_path / "torn.pkl"
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        reader = TraceCache(root=tmp_path)
        assert reader.get("torn") is None
        assert not path.exists()

    def test_clear_sweeps_stray_tmp_files(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("x", workload)
        (tmp_path / ".x.999.0.tmp").write_bytes(b"crashed mid-write")
        cache.clear()
        assert not list(tmp_path.iterdir())

    def test_clear_empties_both_tiers(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("x", workload)
        assert len(cache) == 1
        assert cache.clear() >= 1
        assert len(cache) == 0


class TestGenerateWorkloadCaching:
    def test_repeated_generation_returns_cached_workload(self):
        first = generate_workload(get_profile("mcf"), 300, seed=4)
        second = generate_workload(get_profile("mcf"), 300, seed=4)
        assert second is first

    def test_different_seed_is_a_different_workload(self):
        first = generate_workload(get_profile("mcf"), 300, seed=4)
        second = generate_workload(get_profile("mcf"), 300, seed=5)
        assert second is not first

    def test_env_off_disables_caching(self, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, "off")
        assert active_trace_cache() is None
        first = generate_workload(get_profile("mcf"), 300, seed=4)
        second = generate_workload(get_profile("mcf"), 300, seed=4)
        assert second is not first
        # Identical content either way — caching only changes identity.
        assert [t.ops for t in first] == [t.ops for t in second]

    def test_env_directory_enables_disk_tier(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        generate_workload(get_profile("mcf"), 300, seed=4)
        assert list(tmp_path.glob("*.pkl"))


class TestTierOrder:
    """The LRU answers first, the disk tier second, generation last."""

    def test_memory_tier_precedes_disk(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(100)
        cache.put("k", workload)
        (tmp_path / "k.pkl").unlink()
        # Served from memory by reference, without touching the disk.
        assert cache.get("k") is workload
        assert cache.hits == 1 and cache.misses == 0

    def test_disk_hit_is_promoted_to_memory(self, tmp_path):
        TraceCache(root=tmp_path).put(
            "k", TraceGenerator(get_profile("mcf"), seed=2).generate(100))
        reader = TraceCache(root=tmp_path)
        loaded = reader.get("k")
        assert loaded is not None
        (tmp_path / "k.pkl").unlink()
        assert reader.get("k") is loaded
        assert reader.hits == 2

    def test_disk_tier_serves_without_regenerating(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        mcf = get_profile("mcf")
        first = generate_workload(mcf, 300, seed=4)
        # A fresh process: the LRU is gone, only the directory remains.
        reset_trace_cache()

        def poisoned(self, *args, **kwargs):
            raise AssertionError("regenerated a trace the disk tier holds")
        monkeypatch.setattr(TraceGenerator, "generate", poisoned)
        second = generate_workload(mcf, 300, seed=4)
        assert second is not first
        assert [t.ops for t in second] == [t.ops for t in first]

    def test_len_counts_each_key_once(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("a", workload)            # in memory and on disk
        assert len(cache) == 1
        TraceCache(root=tmp_path).put("b", workload)   # disk only
        assert len(cache) == 2

    def test_failed_disk_write_keeps_the_memory_tier(self, monkeypatch,
                                                     tmp_path):
        import repro.workloads.cache as cache_module

        def full_disk(src, dst):
            raise OSError("no space left on device")
        monkeypatch.setattr(cache_module.os, "replace", full_disk)
        cache = TraceCache(root=tmp_path)
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        cache.put("k", workload)
        assert cache.get("k") is workload
        # Neither the entry nor its temporary file is left behind.
        assert not list(tmp_path.iterdir())


class TestCacheVersion:
    def test_key_covers_the_cache_version(self, monkeypatch):
        import repro.workloads.cache as cache_module
        mcf = get_profile("mcf")
        current = trace_key(mcf, 1000, 1, 0)
        monkeypatch.setattr(cache_module, "TRACE_CACHE_VERSION",
                            cache_module.TRACE_CACHE_VERSION - 1)
        assert trace_key(mcf, 1000, 1, 0) != current

    def test_older_version_entry_misses_without_eviction(self, tmp_path,
                                                         caplog):
        import pickle

        import repro.workloads.cache as cache_module
        workload = TraceGenerator(get_profile("mcf"), seed=2).generate(50)
        path = tmp_path / "k.pkl"
        path.write_bytes(pickle.dumps(
            {"version": cache_module.TRACE_CACHE_VERSION - 1, "key": "k",
             "workload": workload}))
        cache = TraceCache(root=tmp_path)
        with caplog.at_level("WARNING", logger="repro"):
            assert cache.get("k") is None
        assert cache.misses == 1
        # A stale entry is a clean miss: no warning, nothing deleted.
        assert "trace_cache_evicted" not in caplog.text
        assert path.exists()


class TestCampaignTraces:
    """Parallel campaigns: each worker generates (or loads) its own
    traces; the parent generates none and holds none."""

    def _campaign(self, jobs):
        from repro.common.params import ProtectionMode, SystemConfig
        from repro.harness.campaign import Campaign
        from repro.sim.runner import unprotected_config
        return Campaign(
            ["hmmer", "povray"],
            configs={"MuonTrap": SystemConfig(mode=ProtectionMode.MUONTRAP)},
            baseline_config=unprotected_config(), instructions=600,
            jobs=jobs)

    def test_parallel_campaign_leaves_no_traces_in_the_parent(self):
        result = self._campaign(jobs=2).run()
        assert not result.failures
        assert result.stats.workers == 2
        assert len(active_trace_cache()) == 0

    def test_summary_line_counts_cells_only(self):
        result = self._campaign(jobs=2).run()
        summary = result.stats.summary()
        assert summary.startswith(
            "4 executed, 0 store hits, 0 memory hits (0% cached)")
        assert "trace" not in summary

    def test_parallel_campaign_has_no_materialise_phase(self):
        from repro.telemetry.phases import PHASES
        PHASES.reset()
        self._campaign(jobs=2).run()
        assert "trace-gen" in PHASES.totals()
        assert "trace-materialize" not in PHASES.totals()
