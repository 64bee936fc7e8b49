"""End-to-end integration tests across the whole stack.

These are small versions of the paper's experiments: they run real workload
traces through the full simulator under several protection modes and check
the qualitative relationships the paper reports, plus the experiment and
table drivers used by the benchmark harness.  One result store serves
the whole module, so tests share the cells they have in common.
"""

import pytest

from repro import api
from repro.common.params import ProtectionMode, SystemConfig
from repro.experiments.figures import figure4, figure7
from repro.experiments.security import run_security_evaluation
from repro.experiments.table1 import format_table1, table1_as_dict
from repro.harness.store import ResultStore
from repro.sim.runner import standard_modes, unprotected_config

INSTRUCTIONS = 900


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("store"))


@pytest.fixture(scope="module")
def run(store):
    def simulate(benchmark, machine):
        return api.simulate(benchmark, machine, instructions=INSTRUCTIONS,
                            store=store)
    return simulate


class TestPerformanceRelationships:
    def test_every_mode_completes_a_spec_workload(self, run):
        baseline = run("hmmer", unprotected_config())
        assert baseline.cycles > 0
        for label, config in standard_modes().items():
            ratio = run("hmmer", config).cycles / baseline.cycles
            assert 0.5 < ratio < 3.0, f"{label} ratio {ratio} implausible"

    def test_muontrap_cheaper_than_invisispec_future_on_parsec(self, run):
        baseline = run("streamcluster", unprotected_config(num_cores=4))
        muontrap = run("streamcluster",
                       SystemConfig(mode=ProtectionMode.MUONTRAP,
                                    num_cores=4))
        invisispec = run("streamcluster",
                         SystemConfig(mode=ProtectionMode.INVISISPEC_FUTURE,
                                      num_cores=4))
        assert muontrap.cycles <= invisispec.cycles * 1.05
        assert baseline.cycles > 0

    def test_clear_on_misspeculate_costs_something(self, run):
        from repro.common.params import ProtectionConfig
        base = SystemConfig(mode=ProtectionMode.MUONTRAP)
        clearing = base.with_protection(
            ProtectionConfig(clear_on_misspeculate=True))
        normal = run("gobmk", base)
        cleared = run("gobmk", clearing)
        assert cleared.cycles >= normal.cycles * 0.97


class TestExperimentDrivers:
    def test_figure4_structure(self, store):
        result = figure4(["swaptions", "blackscholes"],
                         instructions=INSTRUCTIONS, store=store)
        assert set(result.series) == set(standard_modes())
        assert set(result.benchmarks) == {"swaptions", "blackscholes"}
        assert all(value > 0 for series in result.series.values()
                   for value in series.values())
        table = result.format_table()
        assert "geomean" in table

    def test_figure7_rates_are_proportions(self, store):
        result = figure7(["gcc", "lbm", "povray"],
                         instructions=INSTRUCTIONS, store=store)
        rates = result.series["write fcache-invalidate rate"]
        assert set(rates) == {"gcc", "lbm", "povray"}
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_table1_matches_configuration(self):
        entries = table1_as_dict()
        assert entries["Core count"] == "1 cores"
        assert "192-entry ROB" in entries["Pipeline"]
        assert "2MiB" in entries["L2 Cache"]
        assert "8-wide" in format_table1()


class TestSecurityEvaluation:
    def test_security_matrix_matches_paper_claims(self):
        matrix = run_security_evaluation()
        assert matrix.unprotected_leaks_everything
        assert matrix.muontrap_blocks_everything
        table = matrix.format_table()
        assert "LEAK" in table and "safe" in table
