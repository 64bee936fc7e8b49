"""Tests for the persistent result store."""

import dataclasses
import json

import pytest

from repro.api import resolve_machine
from repro.common.params import ProtectionMode, SystemConfig
from repro.cpu.core import CoreResult
from repro.harness.campaign import RunSpec
from repro.harness.store import (
    STORE_FSYNC_ENV,
    ResultStore,
    result_digest,
    result_from_dict,
    result_to_dict,
    stable_key,
)
from repro.sim.simulator import SimulationResult
from repro.workloads.profiles import get_profile


def make_result(cycles=12345) -> SimulationResult:
    return SimulationResult(
        benchmark="hmmer", mode="muontrap", cycles=cycles,
        instructions=2000, warmup_cycles=321,
        stats={"l1_hits": 99, "fcache_hits": 42},
        core_results=[CoreResult(core_id=0, committed_instructions=2000,
                                 cycles=cycles, committed_loads=600,
                                 committed_stores=200,
                                 committed_branches=150, mispredictions=9,
                                 squashed_accesses=4, nack_retries=1)])


class TestStableKey:
    def test_same_inputs_same_key(self):
        profile = get_profile("hmmer")
        config = SystemConfig(mode=ProtectionMode.MUONTRAP)
        assert (stable_key(profile, config, 2000, 1234)
                == stable_key(profile, config, 2000, 1234))

    def test_any_input_change_changes_key(self):
        profile = get_profile("hmmer")
        config = SystemConfig(mode=ProtectionMode.MUONTRAP)
        base = stable_key(profile, config, 2000, 1234)
        assert stable_key(get_profile("mcf"), config, 2000, 1234) != base
        assert stable_key(profile, config.with_mode(
            ProtectionMode.UNPROTECTED), 2000, 1234) != base
        assert stable_key(profile, config, 2001, 1234) != base
        assert stable_key(profile, config, 2000, 1235) != base
        assert stable_key(profile, config, 2000, 1234,
                          warmup_fraction=0.5) != base

    def test_profile_content_not_just_name_participates(self):
        profile = get_profile("hmmer")
        tweaked = dataclasses.replace(profile, hot_set_bytes=1024)
        config = SystemConfig(mode=ProtectionMode.MUONTRAP)
        assert (stable_key(profile, config, 2000, 1234)
                != stable_key(tweaked, config, 2000, 1234))


class TestPinnedKeys:
    """Store keys of the benchmark's two inline cells, pinned so that a
    config change that silently re-keys existing stores fails here."""

    @pytest.mark.parametrize("bench, scheme, instructions, key", [
        ("mcf", "muontrap", 20_000, "4270e67085f2ee9522f01ffc"),
        ("povray", "unprotected", 80_000, "65e8842046261a75cc70200f"),
    ])
    def test_cell_keys_are_stable(self, bench, scheme, instructions, key):
        machine = resolve_machine(scheme)
        spec = RunSpec(profile=get_profile(bench),
                       label=machine.mode_label, config=machine,
                       instructions=instructions, seed=1234,
                       warmup_fraction=0.35, collect_stats=True)
        assert spec.key() == key

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_stored_cells_keep_serving(self, backend, tmp_path):
        """An entry stored under a pinned key is served, not recomputed."""
        from repro.harness.campaign import ExecutionStats, execute_cells
        from repro.harness.store import open_store
        machine = resolve_machine("muontrap")
        spec = RunSpec(profile=get_profile("mcf"),
                       label=machine.mode_label, config=machine,
                       instructions=20_000, seed=1234,
                       warmup_fraction=0.35, collect_stats=True)
        assert spec.key() == "4270e67085f2ee9522f01ffc"
        store = open_store(tmp_path / "results", backend=backend)
        store.put(spec.key(), make_result())
        stats = ExecutionStats()
        results = execute_cells([spec], jobs=1, store=store, stats=stats)
        assert results[spec.key()] == make_result()
        assert (stats.executed, stats.store_hits) == (0, 1)


class TestRoundTrip:
    def test_result_survives_serialisation(self):
        result = make_result()
        clone = result_from_dict(json.loads(json.dumps(
            result_to_dict(result))))
        assert clone == result

    def test_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        result = make_result()
        store.put("abc123", result, metadata={"label": "MuonTrap"})
        assert "abc123" in store
        assert store.get("abc123") == result
        assert store.metadata("abc123") == {"label": "MuonTrap"}
        assert list(store.keys()) == ["abc123"]

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("nothere") is None
        assert store.misses == 1
        assert store.hits == 0

    def test_hit_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        store.get("k")
        store.get("k")
        assert store.hits == 2

    def test_corrupt_entry_is_a_miss_and_is_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None
        # Evicted, not skipped: the damage cannot recur on every run.
        assert not (tmp_path / "bad.json").exists()
        assert store.evictions == 1

    def test_stale_version_is_a_miss_but_not_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        path = tmp_path / "k.json"
        payload = json.loads(path.read_text())
        payload["version"] = -1
        path.write_text(json.dumps(payload))
        assert store.get("k") is None
        # Old-version entries are merely skipped — they are not damaged.
        assert path.exists()
        assert store.evictions == 0

    def test_clear_empties_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", make_result())
        store.put("b", make_result(cycles=777))
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get("a") is None


class TestIntegrity:
    def test_entries_carry_a_digest_of_the_result_payload(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        payload = json.loads((tmp_path / "k.json").read_text())
        assert payload["sha256"] == result_digest(payload["result"])

    def test_torn_write_is_detected_and_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        path = tmp_path / "k.json"
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        assert store.get("k") is None
        assert not path.exists()
        assert store.evictions == 1
        # The cell is simply recomputed and re-persisted.
        store.put("k", make_result())
        assert store.get("k") == make_result()

    def test_tampered_result_fails_the_digest_check(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        path = tmp_path / "k.json"
        payload = json.loads(path.read_text())
        payload["result"]["cycles"] += 1  # bit-flip without re-digesting
        path.write_text(json.dumps(payload))
        assert store.get("k") is None
        assert store.evictions == 1

    def test_undecodable_result_is_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        path = tmp_path / "k.json"
        payload = json.loads(path.read_text())
        del payload["result"]["benchmark"]
        payload["sha256"] = result_digest(payload["result"])
        path.write_text(json.dumps(payload))
        assert store.get("k") is None
        assert store.evictions == 1

    def test_fsync_mode_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_FSYNC_ENV, "1")
        store = ResultStore(tmp_path)
        assert store.fsync
        result = make_result()
        store.put("k", result)
        assert store.get("k") == result

    def test_clear_sweeps_stray_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result())
        (tmp_path / ".k.999.0.tmp").write_text("crashed mid-write")
        assert store.clear() == 1
        assert not list(tmp_path.iterdir())
