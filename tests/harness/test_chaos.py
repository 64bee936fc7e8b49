"""Chaos tier: real campaigns under injected faults.

These tests lock in the fault-tolerance invariant the executor layer
promises: a campaign that suffers worker crashes, hangs, transient
exceptions or torn store writes produces *byte-identical* results to an
undisturbed run — faults cost re-execution, never correctness.
"""

import json

import pytest

from repro.common.params import ProtectionMode, SystemConfig
from repro.harness.campaign import Campaign
from repro.harness.executor import CELL_TIMEOUT_ENV, MAX_RETRIES_ENV
from repro.harness.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    reset_fault_plan,
)
from repro.harness.report import FAILED_CELL, Report
from repro.harness.store import ResultStore, result_to_dict
from repro.sim.runner import unprotected_config

INSTRUCTIONS = 600

CONFIGS = {"MuonTrap": SystemConfig(mode=ProtectionMode.MUONTRAP)}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (FAULTS_ENV, MAX_RETRIES_ENV, CELL_TIMEOUT_ENV):
        monkeypatch.delenv(name, raising=False)
    reset_fault_plan()
    yield
    reset_fault_plan()


def make_campaign(store=None, jobs=1, benchmarks=("hmmer", "povray"),
                  **kwargs):
    return Campaign(list(benchmarks), configs=CONFIGS,
                    baseline_config=unprotected_config(),
                    instructions=INSTRUCTIONS, store=store, jobs=jobs,
                    **kwargs)


def assert_identical_runs(clean, chaotic):
    assert clean.runs.keys() == chaotic.runs.keys()
    for key, result in clean.runs.items():
        assert (json.dumps(result_to_dict(result), sort_keys=True)
                == json.dumps(result_to_dict(chaotic.runs[key]),
                              sort_keys=True))
    assert clean.geomeans() == chaotic.geomeans()


class TestTransientFaultsAreInvisible:
    def test_injected_exceptions_leave_results_byte_identical(
            self, monkeypatch):
        clean = make_campaign(jobs=2).run()
        monkeypatch.setenv(FAULTS_ENV, "exc:0.6:7")
        chaotic = make_campaign(jobs=2).run()
        assert chaotic.stats.retries > 0
        assert not chaotic.failures
        assert_identical_runs(clean, chaotic)

    def test_killed_workers_never_hang_the_sweep(self, monkeypatch):
        # Every cell's first attempt dies abruptly (os._exit — the view
        # from outside is SIGKILL/OOM): the supervisor must detect each
        # death, restart the worker and re-dispatch, and the sweep must
        # still converge to the clean answer.
        clean = make_campaign(jobs=2).run()
        monkeypatch.setenv(FAULTS_ENV, "kill:1.0:5")
        chaotic = make_campaign(jobs=2).run()
        assert chaotic.stats.worker_restarts > 0
        assert not chaotic.failures
        assert_identical_runs(clean, chaotic)

    def test_hung_cells_are_timed_out_and_redispatched(self, monkeypatch):
        clean = make_campaign(jobs=2, benchmarks=("hmmer",)).run()
        monkeypatch.setenv(FAULTS_ENV, "hang:1.0:3")
        chaotic = make_campaign(jobs=2, benchmarks=("hmmer",),
                                cell_timeout=0.5).run()
        assert chaotic.stats.timeouts > 0
        assert not chaotic.failures
        assert_identical_runs(clean, chaotic)

    def test_serial_executor_never_injects_fatal_kinds(self, monkeypatch):
        # jobs=1 runs in the caller's process, where a kill fault would
        # take down the campaign itself and a hang would block forever;
        # the serial executor must only admit exc faults.
        monkeypatch.setenv(FAULTS_ENV, "kill:1.0:5,hang:1.0:5")
        result = make_campaign(jobs=1, benchmarks=("hmmer",)).run()
        assert not result.failures
        assert result.stats.retries == 0


def partial_failure_seed(cells):
    """A fault seed hitting some — not all, not none — of these cells."""
    keys = [spec.key() for spec in cells]
    for seed in range(200):
        plan = FaultPlan([FaultSpec(kind="exc", rate=0.5, seed=seed,
                                    attempts=99)])
        hit = [key for key in keys if plan.decide("exc", key)]
        if 0 < len(hit) < len(keys):
            return seed, set(hit)
    raise AssertionError("no seed yields a partial failure split")


class TestQuarantine:
    def test_permanent_faults_quarantine_but_the_sweep_completes(
            self, monkeypatch, tmp_path):
        campaign = make_campaign(store=ResultStore(tmp_path), jobs=2,
                                 max_retries=1)
        cells = campaign.cells()
        seed, doomed = partial_failure_seed(cells)
        monkeypatch.setenv(FAULTS_ENV, f"exc:0.5:{seed}:99")
        result = campaign.run()
        # Exactly the planned cells are quarantined; the rest completed.
        assert {cell.key for cell in result.failures} == doomed
        assert all(cell.attempts == 2 for cell in result.failures)
        assert len(result.runs) == len(cells) - len(doomed)
        assert result.stats.failed == len(doomed)
        # Reports annotate the gaps and keep geomeans over completed cells.
        report = Report.from_campaign(result)
        rendered = report.render("text")
        assert FAILED_CELL in rendered
        for label, geomean in result.geomeans().items():
            assert geomean > 0 or not result.normalised()[label]
        # Looking up a quarantined cell names the cause.
        failure = result.failures[0]
        with pytest.raises(KeyError, match="quarantined"):
            result.result(failure.benchmark, failure.label, failure.seed)

    def test_rerun_without_the_fault_heals_the_matrix(self, monkeypatch,
                                                      tmp_path):
        store = ResultStore(tmp_path)
        campaign = make_campaign(store=store, jobs=1, max_retries=0)
        cells = campaign.cells()
        seed, doomed = partial_failure_seed(cells)
        monkeypatch.setenv(FAULTS_ENV, f"exc:0.5:{seed}:99")
        first = campaign.run()
        assert first.failures
        # The fault clears; a fresh campaign over the same store computes
        # exactly the missing cells and completes the matrix.
        monkeypatch.delenv(FAULTS_ENV)
        reset_fault_plan()
        healed = make_campaign(store=store, jobs=1).run()
        assert not healed.failures
        assert len(healed.runs) == len(cells)
        assert healed.stats.executed == len(doomed)
        assert healed.stats.store_hits == len(cells) - len(doomed)


class TestTraceCacheUnderChaos:
    """Worker kills must not tear the on-disk trace tier.

    Workers write trace pickles through a temporary file and an atomic
    rename, so a worker killed at any point leaves either a whole entry
    or none; replacement workers then load or regenerate the same trace.
    """

    def test_killed_workers_leave_the_disk_tier_intact(self, monkeypatch,
                                                       tmp_path):
        from repro.workloads.cache import (
            TRACE_CACHE_ENV,
            TraceCache,
            reset_trace_cache,
        )
        clean = make_campaign(jobs=2).run()
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(FAULTS_ENV, "kill:1.0:5")
        reset_trace_cache()
        try:
            chaotic = make_campaign(jobs=2).run()
        finally:
            reset_trace_cache()
        assert chaotic.stats.worker_restarts > 0
        assert not chaotic.failures
        assert_identical_runs(clean, chaotic)
        entries = sorted(path.stem for path in tmp_path.glob("*.pkl"))
        assert len(entries) == 2            # one workload per benchmark
        reader = TraceCache(root=tmp_path)
        for key in entries:
            assert reader.get(key) is not None, key
        assert reader.misses == 0


class TestResume:
    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        first = make_campaign(store=store, jobs=1).run()
        unique = len(first.runs)
        assert first.stats.executed == unique
        # Simulate a crash that lost one persisted cell.
        lost = next(iter(store.keys()))
        (tmp_path / f"{lost}.json").unlink()
        resumed = make_campaign(store=store, jobs=1).run()
        assert resumed.stats.executed == 1
        assert resumed.stats.store_hits == unique - 1
        assert_identical_runs(first, resumed)

    def test_torn_store_entries_cost_one_recompute_only(self, monkeypatch,
                                                        tmp_path):
        clean = make_campaign(store=ResultStore(tmp_path / "clean"),
                              jobs=1).run()
        # Every write in this run is torn right after it lands (models a
        # crash mid-write): the run itself is unaffected (results are
        # in memory) ...
        store_root = tmp_path / "torn"
        monkeypatch.setenv(FAULTS_ENV, "corrupt:1.0:1")
        torn = make_campaign(store=ResultStore(store_root), jobs=1).run()
        assert_identical_runs(clean, torn)
        # ... and the next run detects every torn entry via the integrity
        # digest, evicts it and recomputes — landing on the same bytes.
        monkeypatch.delenv(FAULTS_ENV)
        reset_fault_plan()
        store = ResultStore(store_root)
        recovered = make_campaign(store=store, jobs=1).run()
        assert store.evictions == len(clean.runs)
        assert recovered.stats.executed == len(clean.runs)
        assert_identical_runs(clean, recovered)
