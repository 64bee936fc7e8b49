"""Differential suite: registry dispatch ≡ the pre-redesign enum dispatch.

The scheme registry replaced the literal if-chain that used to pick each
core's memory-system factory.  These tests keep a faithful copy
of that pre-redesign chain and prove that, for all seven built-in schemes,
a system dispatched through the registry simulates **bit-identically**
(cycles, instructions, and the full statistics tree) to one dispatched
through the legacy chain — homogeneous and heterogeneous, and regardless
of whether the scheme is named by the deprecated enum or by its registry
name string.

(The heterogeneous presets are additionally pinned end-to-end by the
golden snapshots in ``test_golden_stats.py``, which predate the registry.)
"""

import pytest

from repro.baselines.insecure_l0 import InsecureL0MemorySystem
from repro.baselines.invisispec import InvisiSpecMemorySystem
from repro.baselines.stt import STTMemorySystem
from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import ProtectionMode, SystemConfig
from repro.common.rng import DeterministicRng
from repro.common.statistics import StatGroup
from repro.core.muontrap import MuonTrapMemorySystem
from repro.cpu.core import OutOfOrderCore
from repro.memory.page_table import PageTableManager
from repro.sim.simulator import Simulator
from repro.sim.system import SimulatedSystem, build_system
from repro.workloads.generator import generate_workload
from repro.workloads.mixes import get_machine
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 500
SEED = 1234
WARMUP = 0.25


def legacy_frontend_factory(mode):
    """A faithful copy of the pre-redesign dispatch if-chain."""
    if mode is ProtectionMode.MUONTRAP:
        return MuonTrapMemorySystem
    if mode is ProtectionMode.UNPROTECTED:
        return UnprotectedMemorySystem
    if mode is ProtectionMode.INSECURE_L0:
        return InsecureL0MemorySystem
    if mode in (ProtectionMode.INVISISPEC_SPECTRE,
                ProtectionMode.INVISISPEC_FUTURE):
        def build_invisispec(config, **kwargs):
            return InvisiSpecMemorySystem(
                config,
                future_variant=mode is ProtectionMode.INVISISPEC_FUTURE,
                **kwargs)
        return build_invisispec
    if mode in (ProtectionMode.STT_SPECTRE, ProtectionMode.STT_FUTURE):
        def build_stt(config, **kwargs):
            return STTMemorySystem(
                config, future_variant=mode is ProtectionMode.STT_FUTURE,
                **kwargs)
        return build_stt
    raise ValueError(f"unknown protection mode: {mode!r}")


def legacy_build_system(config: SystemConfig, seed: int) -> SimulatedSystem:
    """The pre-redesign single-scheme construction path, verbatim."""
    stats = StatGroup("system")
    rng = DeterministicRng(seed)
    page_tables = PageTableManager(page_size=config.tlb.page_size)
    memory_system = legacy_frontend_factory(config.mode)(
        config, page_tables=page_tables,
        stats=stats.child("memory_system"), rng=rng)
    cores = [
        OutOfOrderCore(core_id, config, memory_system.frontend(core_id),
                       process_id=0, stats=stats.child(f"core{core_id}"))
        for core_id in range(config.num_cores)
    ]
    return SimulatedSystem(config=config, memory_system=memory_system,
                           cores=cores, stats=stats,
                           page_tables=page_tables)


def run(system, benchmark="mcf"):
    profile = get_profile(benchmark)
    workload = generate_workload(profile, INSTRUCTIONS, seed=SEED)
    return Simulator(system).run(workload, collect_stats=True,
                                 warmup_fraction=WARMUP)


def assert_identical(left, right):
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.warmup_cycles == right.warmup_cycles
    assert left.core_results == right.core_results
    assert left.stats == right.stats


class TestHomogeneousDifferential:
    @pytest.mark.parametrize("mode", list(ProtectionMode),
                             ids=[mode.value for mode in ProtectionMode])
    def test_registry_bit_identical_to_legacy_chain(self, mode):
        config = SystemConfig(mode=mode)
        registry = run(build_system(config, seed=SEED))
        legacy = run(legacy_build_system(config, seed=SEED))
        assert_identical(registry, legacy)

    @pytest.mark.parametrize("mode", list(ProtectionMode),
                             ids=[mode.value for mode in ProtectionMode])
    def test_scheme_name_strings_equal_enum_members(self, mode):
        by_enum = run(build_system(SystemConfig(mode=mode), seed=SEED))
        by_name = run(build_system(SystemConfig(mode=mode.value),
                                   seed=SEED))
        assert_identical(by_enum, by_name)


class TestHeterogeneousDifferential:
    @pytest.mark.parametrize("preset", ["biglittle-asym", "asym-protect"])
    def test_string_named_hetero_machines_equal_enum_named(self, preset):
        config = get_machine(preset)
        # Rebuild the same machine with every per-core mode expressed as a
        # registry name string instead of the enum.
        renamed = config.with_core_configs(
            [core.with_mode(core.scheme) for core in config.core_configs()])
        assert renamed.core_modes == config.core_modes  # normalised back
        left = run(build_system(config, seed=SEED), "mix-pointer-stream")
        right = run(build_system(renamed, seed=SEED), "mix-pointer-stream")
        assert_identical(left, right)

    def test_hetero_composite_uses_registry_frontends(self):
        config = get_machine("asym-protect")
        system = build_system(config, seed=SEED)
        frontends = system.memory_system.scheme_frontends
        assert set(frontends) == {"muontrap", "unprotected"}
        assert isinstance(frontends["muontrap"], MuonTrapMemorySystem)
        assert isinstance(frontends["unprotected"],
                          UnprotectedMemorySystem)
