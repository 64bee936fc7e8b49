"""Tests for the out-of-order core model, branch predictor and windows."""

import pytest

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import BranchPredictorConfig, default_system_config
from repro.core.muontrap import MuonTrapMemorySystem
from repro.cpu.branch_predictor import (
    BranchTargetBuffer,
    ReturnAddressStack,
    TournamentPredictor,
)
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instructions import MicroOp, OpKind, WrongPathAccess, summarize_trace
from repro.cpu.rob import LoadQueue, ReorderBuffer


class TestBranchPredictorComponents:
    def test_predictor_counters_saturate_and_flip(self):
        predictor = TournamentPredictor(BranchPredictorConfig())
        tables = (predictor._local_counters, predictor._global_counters,
                  predictor._chooser)
        for _ in range(100):
            predictor.update(0x400, True, 0x800)
        assert predictor.predict(0x400)
        for _ in range(100):
            predictor.update(0x400, False)
        assert not predictor.predict(0x400)
        for table in tables:
            assert all(0 <= value <= 3 for value in table)
        # Each run drove the global entries it kept hitting into
        # saturation, one at each end.
        assert max(predictor._global_counters) == 3
        assert min(predictor._global_counters) == 0

    def test_btb_and_ras(self):
        btb = BranchTargetBuffer(entries=16)
        btb.update(0x400, 0x800)
        assert btb.lookup(0x400) == 0x800
        ras = ReturnAddressStack(entries=2)
        ras.push(0x1000)
        ras.push(0x2000)
        ras.push(0x3000)           # overflows, drops the oldest
        assert ras.pop() == 0x3000
        assert ras.pop() == 0x2000
        assert ras.pop() is None
        assert ras.overflows == 1

    def test_predictor_learns_biased_branch(self):
        predictor = TournamentPredictor(BranchPredictorConfig())
        mispredicts = sum(predictor.update(0x400, True, 0x800)
                          for _ in range(100))
        assert mispredicts < 10
        assert predictor.misprediction_rate < 0.1

    def test_predictor_learns_alternating_pattern(self):
        predictor = TournamentPredictor(BranchPredictorConfig())
        outcomes = [bool(i % 2) for i in range(200)]
        mispredicts = sum(predictor.update(0x500, taken, 0x900)
                          for taken in outcomes)
        # A local-history tournament predictor learns a period-2 pattern.
        assert mispredicts < 40


class TestRetirementWindows:
    def test_rob_backpressure(self):
        rob = ReorderBuffer(capacity=2)
        rob.allocate(commit_time=100)
        rob.allocate(commit_time=200)
        assert rob.earliest_dispatch_time(now=10) == 100
        assert rob.full_stalls == 1
        rob.retire_older_than(150)
        assert rob.earliest_dispatch_time(now=10) == 10

    def test_load_queue_capacity(self):
        load_queue = LoadQueue(capacity=1)
        load_queue.allocate(commit_time=50)
        assert load_queue.is_full
        assert load_queue.earliest_dispatch_time(now=0) == 50

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(capacity=0)


def _simple_trace(n=400, miss_stride=None):
    ops = []
    pc = 0x1000
    for i in range(n):
        if i % 5 == 2:
            address = 0x10_0000 + (i * (miss_stride or 64)) % 4096
            ops.append(MicroOp(kind=OpKind.LOAD, pc=pc, address=address,
                               dst_reg=1))
        elif i % 9 == 4:
            ops.append(MicroOp(kind=OpKind.BRANCH, pc=pc, taken=i % 2 == 0,
                               target=pc + 64,
                               wrong_path=[WrongPathAccess(address=0x20_0000
                                                           + i * 64)]))
        elif i % 7 == 3:
            ops.append(MicroOp(kind=OpKind.STORE, pc=pc,
                               address=0x30_0000 + (i * 64) % 2048,
                               src_regs=(1,)))
        else:
            ops.append(MicroOp(kind=OpKind.INT_ALU, pc=pc, src_regs=(1,),
                               dst_reg=2))
        pc += 4
    return ops


class TestOutOfOrderCore:
    def test_runs_trace_and_reports_result(self):
        config = default_system_config()
        core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
        result = core.run(_simple_trace())
        assert result.committed_instructions == 400
        assert result.cycles > 0
        assert 0 < result.ipc < config.core.width
        assert result.committed_loads > 0
        assert result.committed_stores > 0
        assert result.committed_branches > 0

    def test_commit_times_monotonic(self):
        config = default_system_config()
        core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
        previous = 0
        for op in _simple_trace(200):
            commit_time = core.execute_op(op)
            assert commit_time >= previous
            previous = commit_time

    def test_mispredictions_generate_squashed_accesses(self):
        config = default_system_config()
        core = OutOfOrderCore(0, config, UnprotectedMemorySystem(config))
        result = core.run(_simple_trace(600))
        assert result.mispredictions > 0
        assert result.squashed_accesses > 0

    def test_memory_op_requires_address(self):
        with pytest.raises(ValueError):
            MicroOp(kind=OpKind.LOAD, pc=0x1000)

    def test_muontrap_core_commits_everything(self):
        config = default_system_config()
        memory = MuonTrapMemorySystem(config)
        core = OutOfOrderCore(0, config, memory)
        result = core.run(_simple_trace(300))
        assert result.committed_instructions == 300
        # Commit-side write-through happened for the committed loads.
        assert memory.stats.get("committed_loads") == result.committed_loads

    def test_summarize_trace(self):
        summary = summarize_trace(_simple_trace(100))
        assert summary["total"] == 100
        assert summary["loads"] > 0
        assert abs(summary["load_fraction"] - summary["loads"] / 100) < 1e-9
