"""Tests for campaign expansion, caching and parallel determinism."""

import json

import pytest

from repro.common.params import ProtectionMode, SystemConfig
from repro.harness.campaign import (
    Campaign,
    ExecutionStats,
    RunSpec,
    derive_seed,
    execute_cells,
    run_cell,
)
from repro.harness.store import ResultStore, result_to_dict
from repro.harness.executor import SerialExecutor
from repro.sim.runner import unprotected_config
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 600

CONFIGS = {"MuonTrap": SystemConfig(mode=ProtectionMode.MUONTRAP)}


def make_campaign(store=None, jobs=1, benchmarks=("hmmer", "povray"),
                  replicates=1):
    return Campaign(list(benchmarks), configs=CONFIGS,
                    baseline_config=unprotected_config(),
                    instructions=INSTRUCTIONS, store=store, jobs=jobs,
                    replicates=replicates)


class TestExpansion:
    def test_cells_cover_the_full_matrix(self):
        campaign = make_campaign(replicates=2)
        cells = campaign.cells()
        # 2 benchmarks x (1 config + baseline) x 2 seeds
        assert len(cells) == 8
        assert len({spec.key() for spec in cells}) == 8
        labels = {spec.label for spec in cells}
        assert labels == {"MuonTrap", "baseline"}

    def test_from_suites_resolves_and_sorts(self):
        campaign = Campaign.from_suites(
            ["swaptions", "blackscholes", "swaptions"], configs=CONFIGS,
            baseline_config=unprotected_config(),
            instructions=INSTRUCTIONS)
        assert campaign.benchmarks == ["blackscholes", "swaptions"]

    def test_replicate_seeds_are_stable_and_distinct(self):
        assert derive_seed(1234, 0) == 1234
        seeds = [derive_seed(1234, replicate) for replicate in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [derive_seed(1234, replicate)
                         for replicate in range(4)]

    def test_baseline_label_collision_rejected(self):
        with pytest.raises(ValueError):
            Campaign(["hmmer"], configs=CONFIGS,
                     baseline_config=unprotected_config(),
                     baseline_label="MuonTrap")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            Campaign([], configs=CONFIGS)
        with pytest.raises(ValueError):
            Campaign(["hmmer"], configs={})


class TestDeterminism:
    def test_parallel_results_byte_identical_to_sequential(self):
        sequential = make_campaign(jobs=1).run()
        parallel = make_campaign(jobs=2).run()
        assert sequential.runs.keys() == parallel.runs.keys()
        for key, result in sequential.runs.items():
            assert (json.dumps(result_to_dict(result), sort_keys=True)
                    == json.dumps(result_to_dict(parallel.runs[key]),
                                  sort_keys=True))
        assert sequential.geomeans() == parallel.geomeans()

    def test_parallel_and_sequential_stores_identical(self, tmp_path):
        store_seq = ResultStore(tmp_path / "seq")
        store_par = ResultStore(tmp_path / "par")
        make_campaign(store=store_seq, jobs=1).run()
        make_campaign(store=store_par, jobs=2).run()
        seq_keys = list(store_seq.keys())
        assert seq_keys == list(store_par.keys())
        for key in seq_keys:
            assert ((store_seq.root / f"{key}.json").read_text()
                    == (store_par.root / f"{key}.json").read_text())


class TestCaching:
    def test_second_run_serves_everything_from_store(self, tmp_path):
        store = ResultStore(tmp_path)
        first = make_campaign(store=store).run()
        assert first.stats.executed == first.stats.total == 4

        rerun = make_campaign(store=store).run()  # fresh campaign object
        assert rerun.stats.executed == 0
        assert rerun.stats.store_hits == 4
        assert rerun.stats.cached_fraction == 1.0
        assert rerun.geomeans() == first.geomeans()

    def test_rerun_without_a_store_executes_again(self):
        campaign = make_campaign()
        first = campaign.run()
        again = campaign.run()
        assert again.stats.executed == again.stats.total == 4
        assert again.stats.memory_hits == 0
        assert again.stats.cached_fraction == 0.0
        assert again.geomeans() == first.geomeans()

    def test_partial_result_serves_stored_cells_after_interrupt(
            self, tmp_path):
        class InterruptAfterTwo(SerialExecutor):
            def execute(self, tasks, **kwargs):
                super().execute(tasks[:2], **kwargs)
                raise KeyboardInterrupt

        store = ResultStore(tmp_path)
        campaign = Campaign(["hmmer", "povray"], configs=CONFIGS,
                            baseline_config=unprotected_config(),
                            instructions=INSTRUCTIONS, store=store,
                            executor=InterruptAfterTwo())
        with pytest.raises(KeyboardInterrupt):
            campaign.run()
        partial = campaign.partial_result()
        assert set(partial.runs) == {("hmmer", "MuonTrap", 1234),
                                     ("hmmer", "baseline", 1234)}
        assert partial.benchmarks == ["hmmer"]
        complete = make_campaign(store=store).run()
        assert complete.stats.store_hits == 2
        assert partial.normalised()["MuonTrap"]["hmmer"] \
            == complete.normalised()["MuonTrap"]["hmmer"]

    def test_partial_result_without_a_store_is_empty(self):
        partial = make_campaign().partial_result()
        assert partial.runs == {}
        assert partial.benchmarks == []

    def test_widening_a_sweep_is_incremental(self, tmp_path):
        store = ResultStore(tmp_path)
        make_campaign(store=store, benchmarks=("hmmer",)).run()
        widened = make_campaign(store=store,
                                benchmarks=("hmmer", "povray")).run()
        assert widened.stats.store_hits == 2   # hmmer baseline + MuonTrap
        assert widened.stats.executed == 2     # only the povray cells

    def test_execute_cells_dedups_identical_specs(self):
        spec = RunSpec(profile=get_profile("hmmer"), label="MuonTrap",
                       config=CONFIGS["MuonTrap"],
                       instructions=INSTRUCTIONS, seed=1)
        stats = ExecutionStats()
        results = execute_cells([spec, spec], jobs=1, stats=stats)
        assert stats.executed == 1
        assert results[spec.key()].cycles == run_cell(spec).cycles


class TestNormalisation:
    def test_normalised_matches_cycle_ratio(self):
        result = make_campaign().run()
        series = result.normalised()["MuonTrap"]
        for benchmark in ("hmmer", "povray"):
            baseline = result.result(benchmark, "baseline").cycles
            protected = result.result(benchmark, "MuonTrap").cycles
            assert series[benchmark] == pytest.approx(protected / baseline)
            assert series[benchmark] > 0
