"""Tests for the event tracer: determinism, correctness and the guard."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.telemetry import (
    CATEGORIES,
    TraceEvent,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    tracing,
)

GOLDEN = Path(__file__).parent / "golden_trace.sha256"
SEED = 7
INSTRUCTIONS = 600


def traced_outcome(**kwargs):
    return api.simulate("mcf", scheme="muontrap", seed=SEED,
                        instructions=INSTRUCTIONS, warmup_fraction=0.0,
                        collect_stats=True, trace=True, **kwargs)


def jsonl_bytes(tracer) -> bytes:
    buffer = io.StringIO()
    tracer.write_jsonl(buffer)
    return buffer.getvalue().encode("utf-8")


class TestActivation:
    def test_inactive_by_default(self):
        assert active_tracer() is None

    def test_tracing_context_installs_and_removes(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_tracing_none_is_a_noop_context(self):
        with tracing(None) as active:
            assert active is None
            assert active_tracer() is None

    def test_second_activation_rejected(self):
        first, second = Tracer(), Tracer()
        activate(first)
        try:
            activate(first)          # re-activating the same tracer is fine
            with pytest.raises(RuntimeError):
                activate(second)
        finally:
            deactivate()
        assert active_tracer() is None

    def test_tracing_deactivates_on_exception(self):
        with pytest.raises(ValueError):
            with tracing(Tracer()):
                raise ValueError("boom")
        assert active_tracer() is None


class TestCollection:
    def test_emit_stamps_with_cycle_cursor(self):
        tracer = Tracer()
        tracer.now = 41
        tracer.emit("cache", "hit", core=0, unit="l1d")
        tracer.emit("cache", "miss", cycle=7)
        assert [event.cycle for event in tracer.events] == [41, 7]
        assert tracer.events[0].detail == {"unit": "l1d"}

    def test_counts_and_clear(self):
        tracer = Tracer()
        tracer.emit("pipeline", "issue")
        tracer.emit("pipeline", "issue")
        tracer.emit("cache", "hit")
        assert len(tracer) == 3
        assert tracer.counts() == {("pipeline", "issue"): 2,
                                   ("cache", "hit"): 1}
        tracer.clear()
        assert len(tracer) == 0 and tracer.now == 0

    def test_category_filter_drops_other_categories(self):
        tracer = Tracer(categories={"pipeline"})
        tracer.emit("pipeline", "issue")
        tracer.emit("cache", "hit")
        tracer.emit("tlb", "walk")
        assert tracer.counts() == {("pipeline", "issue"): 1}

    def test_event_json_is_flat_sorted_and_omits_none(self):
        event = TraceEvent(cycle=3, category="cache", name="hit", core=1,
                           address=0x40, pc=None, detail={"unit": "l1d"})
        parsed = json.loads(event.to_json())
        assert parsed == {"cycle": 3, "cat": "cache", "name": "hit",
                          "core": 1, "addr": 0x40, "unit": "l1d"}
        assert "pc" not in parsed                    # None identifiers omitted
        assert list(parsed) == sorted(parsed)        # deterministic key order


class TestTracedSimulation:
    @pytest.fixture(scope="class")
    def outcome(self):
        return traced_outcome()

    def test_events_cover_every_category(self, outcome):
        seen = {event.category for event in outcome.tracer.events}
        assert seen == set(CATEGORIES)

    def test_events_carry_registry_scheme_names(self, outcome):
        assert outcome.tracer.core_schemes == {0: "muontrap"}
        metas = [event for event in outcome.tracer.events
                 if event.category == "meta"]
        assert [event.detail["scheme"] for event in metas] == ["muontrap"]
        # Registry names, never enum reprs.
        assert "ProtectionMode" not in jsonl_bytes(outcome.tracer).decode()

    def test_traced_run_matches_untraced_run(self, outcome):
        plain = api.simulate("mcf", scheme="muontrap", seed=SEED,
                             instructions=INSTRUCTIONS, warmup_fraction=0.0,
                             collect_stats=True)
        assert outcome.result.cycles == plain.result.cycles
        assert outcome.stats == plain.stats

    def test_traced_run_is_a_timed_campaign_cell(self):
        from repro.telemetry.phases import PHASES
        before = PHASES.counts()
        traced = traced_outcome()
        after = PHASES.counts()
        for name in ("trace-gen", "build", "simulate"):
            assert after[name] == before.get(name, 0) + 1
        plain = api.simulate("mcf", scheme="muontrap", seed=SEED,
                             instructions=INSTRUCTIONS, warmup_fraction=0.0,
                             collect_stats=True)
        assert traced.result == plain.result

    def test_per_event_hit_miss_counts_sum_to_aggregate_counters(
            self, outcome):
        """Every cache hit/miss event must have an aggregate twin."""
        per_unit = {}
        for event in outcome.tracer.events:
            if event.category != "cache" or event.name not in ("hit", "miss"):
                continue
            key = (event.core, event.detail["unit"], event.name)
            per_unit[key] = per_unit.get(key, 0) + 1
        assert per_unit, "traced run recorded no cache events"
        for (core, unit, name), count in per_unit.items():
            counter = {"hit": "hits", "miss": "misses"}[name]
            if unit in ("l1d", "l1i"):
                path = (f"system.memory_system.hierarchy.core{core}"
                        f".{unit}.{counter}")
            elif unit == "l2":
                path = f"system.memory_system.hierarchy.l2.{counter}"
            else:
                continue
            assert outcome.stats.get(path) == count, (unit, name)

    def test_pipeline_commit_counts_match_committed_instructions(
            self, outcome):
        commits = outcome.tracer.counts()[("pipeline", "commit")]
        assert commits == INSTRUCTIONS


class TestDeterminism:
    def test_jsonl_byte_identical_across_runs_and_worker_settings(
            self, monkeypatch):
        first = jsonl_bytes(traced_outcome().tracer)
        monkeypatch.setenv("REPRO_JOBS", "4")
        second = jsonl_bytes(traced_outcome().tracer)
        assert first == second

    def test_golden_trace_digest(self, update_golden):
        """Seed-pinned golden snapshot of the whole event stream.

        Hashing keeps the checked-in artefact tiny while still pinning
        every byte.  Regenerate with ``pytest --update-golden`` after an
        intentional change to event content or ordering.
        """
        digest = hashlib.sha256(jsonl_bytes(traced_outcome().tracer))
        actual = digest.hexdigest()
        if update_golden:
            GOLDEN.write_text(actual + "\n")
            pytest.skip("golden trace digest rewritten")
        expected = GOLDEN.read_text().strip()
        assert actual == expected, (
            "trace stream changed; if intentional, regenerate with "
            f"`pytest {__file__} --update-golden`")

    @pytest.mark.slow
    def test_jsonl_byte_identical_under_fresh_hash_seed(self, tmp_path):
        """A fresh interpreter (different PYTHONHASHSEED) traces identically."""
        out = tmp_path / "sub.jsonl"
        script = (
            "from repro import api\n"
            f"api.simulate('mcf', scheme='muontrap', seed={SEED}, "
            f"instructions={INSTRUCTIONS}, warmup_fraction=0.0, "
            f"trace={str(out)!r})\n")
        env = dict(os.environ, PYTHONHASHSEED="random",
                   PYTHONPATH=str(Path(__file__).parents[2] / "src"))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
        assert out.read_bytes() == jsonl_bytes(traced_outcome().tracer)


class TestExport:
    def test_write_jsonl_to_path_and_line_shape(self, tmp_path):
        outcome = traced_outcome()
        target = tmp_path / "run.jsonl"
        written = outcome.tracer.write_jsonl(target)
        lines = target.read_text().splitlines()
        assert written == len(lines) == len(outcome.tracer)
        record = json.loads(lines[0])
        assert set(record) >= {"cycle", "cat", "name"}

    def test_chrome_trace_parses_and_has_complete_events(self, tmp_path):
        outcome = traced_outcome()
        target = tmp_path / "run.chrome.json"
        written = outcome.tracer.write_chrome(target)
        payload = json.loads(target.read_text())
        events = payload["traceEvents"]
        assert written == len(events)
        phases = {event["ph"] for event in events}
        assert phases == {"X", "i"}
        slices = [event for event in events if event["ph"] == "X"]
        assert len(slices) == INSTRUCTIONS
        assert all(event["dur"] >= 0 for event in slices)

    def test_simulate_writes_trace_files(self, tmp_path):
        jsonl = tmp_path / "out.jsonl"
        chrome = tmp_path / "out.chrome.json"
        outcome = api.simulate("mcf", scheme="muontrap", seed=SEED,
                               instructions=INSTRUCTIONS,
                               warmup_fraction=0.0, trace=jsonl,
                               chrome_trace=chrome)
        assert outcome.trace_path == jsonl and jsonl.stat().st_size > 0
        assert outcome.chrome_path == chrome
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_simulate_preserves_caller_category_filter(self):
        tracer = Tracer(categories={"pipeline"})
        outcome = api.simulate("mcf", scheme="muontrap", seed=SEED,
                               instructions=INSTRUCTIONS,
                               warmup_fraction=0.0, trace=tracer)
        assert outcome.tracer is tracer
        assert {event.category for event in tracer.events} == {"pipeline"}
