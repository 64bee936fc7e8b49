"""Tests for report rendering, env validation and the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main
from repro.harness.report import Report
from repro.sim.runner import instructions_per_workload, parallel_jobs
from repro.sim.sweeps import filter_cache_associativity_configs

SERIES = {
    "MuonTrap": {"hmmer": 1.05, "mcf": 1.20},
    "STT-Future": {"hmmer": 1.40, "mcf": 1.80},
}


class TestReport:
    def make(self):
        return Report(benchmarks=["hmmer", "mcf"], series=SERIES,
                      title="demo")

    def test_rows_have_header_body_and_geomean_footer(self):
        rows = self.make().rows()
        assert rows[0] == ["benchmark", "MuonTrap", "STT-Future"]
        assert rows[1] == ["hmmer", "1.050", "1.400"]
        assert rows[-1][0] == "geomean"

    def test_geomeans_computed_when_not_given(self):
        report = self.make()
        assert report.geomeans["MuonTrap"] == pytest.approx(
            (1.05 * 1.20) ** 0.5)

    def test_markdown_contains_alignment_row_and_title(self):
        markdown = self.make().to_markdown()
        assert markdown.startswith("### demo")
        assert "| --- |" in markdown
        assert "| hmmer | 1.050 | 1.400 |" in markdown

    def test_csv_round_trips_through_csv_module(self):
        import csv
        import io
        rows = list(csv.reader(io.StringIO(self.make().to_csv())))
        assert rows == self.make().rows()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown report format"):
            self.make().render("html")


class TestGeomeanFooterWithoutData:
    """A series with no completed cells foots ``n/a``, never 0.000.

    ``geometric_mean([])`` falls back to 0.0, and the footer used to
    format that fallback as a value — an all-quarantined scheme read as
    "0.000", i.e. infinitely faster than the baseline, in every renderer.
    """

    def make(self):
        # One healthy series beside one with no values at all (the shape
        # CampaignResult.normalised() produces when every cell of a
        # series failed: the label survives, its values dict is empty).
        return Report(benchmarks=["hmmer", "mcf"],
                      series={"MuonTrap": {"hmmer": 1.05, "mcf": 1.20},
                              "Broken": {}},
                      failed={("hmmer", "Broken"), ("mcf", "Broken")})

    def test_text_footer_reads_na(self):
        rows = self.make().rows()
        assert rows[-1][0] == "geomean"
        assert rows[-1][1] == "1.122"          # healthy series unaffected
        assert rows[-1][2] == "n/a"
        assert rows[1][2] == "FAILED"          # body cells stay annotated

    def test_every_renderer_agrees(self):
        report = self.make()
        assert "n/a" in report.to_text()
        assert "| n/a |" in report.to_markdown()
        assert "geomean,1.122,n/a" in report.to_csv()
        assert "0.000" not in report.render("text")

    def test_explicit_geomeans_are_respected(self):
        report = Report(benchmarks=["hmmer"],
                        series={"S": {"hmmer": 0.9}},
                        geomeans={"S": 0.9})
        assert report.rows()[-1] == ["geomean", "0.900"]


class TestEnvValidation:
    def test_instructions_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "2500")
        assert instructions_per_workload() == 2500

    def test_explicit_instructions_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "2500")
        assert instructions_per_workload(5000) == 5000
        assert instructions_per_workload(default=1000) == 2500

    def test_instructions_env_rejects_too_small(self, monkeypatch):
        # A set-but-too-small value is a configuration mistake, not a
        # request for the floor: it must fail like a non-integer does.
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "10")
        with pytest.raises(ValueError,
                           match="REPRO_INSTRUCTIONS must be at least 500"):
            instructions_per_workload()

    def test_jobs_env_rejects_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError,
                           match="REPRO_JOBS must be at least 1"):
            parallel_jobs()

    def test_instructions_env_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "lots")
        with pytest.raises(ValueError, match="REPRO_INSTRUCTIONS"):
            instructions_per_workload()

    def test_jobs_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert parallel_jobs() == 3
        assert parallel_jobs(default=1) == 3

    def test_jobs_env_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            parallel_jobs()

    def test_jobs_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel_jobs(default=1) == 1
        assert parallel_jobs() >= 1


class TestSweepClamping:
    def test_clamped_duplicate_is_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="duplicates the 32-way"):
            configs = filter_cache_associativity_configs([16, 32, 64],
                                                         size_bytes=2048)
        assert sorted(configs) == [16, 32]

    def test_clamped_non_duplicate_kept_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            configs = filter_cache_associativity_configs([64],
                                                         size_bytes=2048)
        assert sorted(configs) == [32]
        assert configs[32].data_filter.associativity == 32

    def test_unclamped_sweep_warns_nothing(self, recwarn):
        configs = filter_cache_associativity_configs([1, 2, 4],
                                                     size_bytes=2048)
        assert sorted(configs) == [1, 2, 4]
        assert not recwarn.list


class TestCli:
    @pytest.fixture(autouse=True)
    def fast_runs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "600")
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        self.store_dir = tmp_path / "store"

    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_then_rerun_serves_from_store(self, capsys):
        args = ("run", "--suite", "hmmer", "--suite", "povray",
                "--mode", "muontrap", "--jobs", "2")
        assert self.run_cli(*args) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 store hits" in first
        assert "geomean" in first

        assert self.run_cli(*args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 store hits" in second
        assert "100% cached" in second

    def test_report_renders_markdown(self, capsys):
        assert self.run_cli("report", "--suite", "hmmer",
                            "--mode", "muontrap",
                            "--format", "markdown") == 0
        out = capsys.readouterr().out
        assert "| benchmark | MuonTrap |" in out
        assert "| geomean |" in out

    def test_clean_empties_store(self, capsys):
        self.run_cli("run", "--suite", "hmmer", "--mode", "muontrap")
        capsys.readouterr()
        assert self.run_cli("clean") == 0
        assert "removed 2 cached results" in capsys.readouterr().out
        assert not list(self.store_dir.glob("*.json"))

    def test_suites_lists_builtins(self, capsys):
        assert self.run_cli("suites") == 0
        out = capsys.readouterr().out
        assert "spec_int (11)" in out
        assert "parsec (7)" in out

    def test_engine_flag_is_rejected(self, capsys):
        # One engine is left, so there is no engine to choose.
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli("run", "--suite", "hmmer", "--mode", "muontrap",
                         "--engine", "packed")
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err
