"""Tests for the packed (struct-of-arrays) trace representation."""

import pickle
import random

import pytest

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import default_system_config
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instructions import (
    F_BRANCH,
    F_LOAD,
    F_STORE,
    F_TAKEN,
    F_TRANSMITTER,
    MicroOp,
    OpKind,
    WrongPathAccess,
)
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import get_profile
from repro.workloads.trace import PackedTrace, Trace


def _varied_ops():
    return [
        MicroOp(kind=OpKind.LOAD, pc=0x1000, address=0x10_0000, dst_reg=3),
        MicroOp(kind=OpKind.STORE, pc=0x1004, address=0x10_0040,
                src_regs=(3,)),
        MicroOp(kind=OpKind.BRANCH, pc=0x1008, taken=True, target=0x2000,
                force_mispredict=True,
                wrong_path=[WrongPathAccess(address=0x20_0000),
                            WrongPathAccess(address=0x20_0040, is_store=True),
                            WrongPathAccess(address=0x3000,
                                            is_instruction=True)]),
        MicroOp(kind=OpKind.INT_ALU, pc=0x100C, src_regs=(3, 7), dst_reg=8),
        MicroOp(kind=OpKind.FP_ALU, pc=0x1010, dst_reg=9,
                execution_latency=5),
        MicroOp(kind=OpKind.SYSCALL, pc=0x1014, is_context_switch=True),
        MicroOp(kind=OpKind.NOP, pc=0x1018, is_sandbox_entry=True),
        MicroOp(kind=OpKind.BRANCH, pc=0x101C, taken=False, target=0x1000,
                force_mispredict=False),
        MicroOp(kind=OpKind.MUL_DIV, pc=0x1020, dst_reg=10, sequence=42),
    ]


class TestPackUnpackRoundTrip:
    def test_lossless_round_trip(self):
        ops = _varied_ops()
        packed = PackedTrace.pack(ops)
        assert len(packed) == len(ops)
        assert packed.unpack() == ops

    def test_single_op_materialisation(self):
        ops = _varied_ops()
        packed = PackedTrace.pack(ops)
        for index, op in enumerate(ops):
            assert packed.op(index) == op

    def test_generated_trace_round_trips(self):
        trace = TraceGenerator(get_profile("mcf"), seed=3).generate_single(400)
        assert trace.packed().unpack() == trace.ops


    def test_pickle_round_trip(self):
        """The on-disk trace cache stores packed traces as plain pickles."""
        packed = PackedTrace.pack(_varied_ops())
        clone = pickle.loads(pickle.dumps(packed,
                                          protocol=pickle.HIGHEST_PROTOCOL))
        assert clone is not packed
        for name in PackedTrace.__slots__:
            assert getattr(clone, name) == getattr(packed, name), name
        assert clone.unpack() == packed.unpack()


class TestPackedFlags:
    def test_kind_flags_precomputed(self):
        packed = PackedTrace.pack(_varied_ops())
        assert packed.flags[0] & F_LOAD
        assert packed.flags[0] & F_TRANSMITTER
        assert packed.flags[1] & F_STORE
        assert packed.flags[1] & F_TRANSMITTER
        assert packed.flags[2] & F_BRANCH
        assert packed.flags[2] & F_TAKEN
        assert not packed.flags[3] & (F_LOAD | F_STORE | F_BRANCH)

    def test_flags_match_enum_properties(self):
        trace = TraceGenerator(get_profile("gcc"), seed=5).generate_single(300)
        packed = trace.packed()
        for index, op in enumerate(trace.ops):
            flags = packed.flags[index]
            assert bool(flags & F_LOAD) == op.is_load
            assert bool(flags & F_STORE) == op.is_store
            assert bool(flags & F_BRANCH) == op.is_branch
            assert bool(flags & F_TRANSMITTER) == op.kind.is_transmitter


def _random_op(rng: random.Random, sequence: int) -> MicroOp:
    """One random micro-op drawing every field from its full domain."""
    kind = rng.choice(list(OpKind))
    pc = rng.randrange(0, 1 << 32, 4)
    address = (rng.randrange(0, 1 << 40, 1)
               if kind.is_memory or rng.random() < 0.1 else None)
    src_regs = tuple(rng.randrange(0, 256)
                     for _ in range(rng.randrange(0, 4)))
    dst_reg = rng.randrange(0, 256) if rng.random() < 0.5 else None
    latency = rng.randrange(0, 12) if rng.random() < 0.5 else None
    taken = rng.random() < 0.5
    target = rng.randrange(0, 1 << 32, 4) if rng.random() < 0.5 else None
    force = rng.choice([None, True, False])
    wrong_path = [
        WrongPathAccess(address=rng.randrange(0, 1 << 40),
                        is_store=rng.random() < 0.3,
                        is_instruction=rng.random() < 0.2,
                        issue_offset=rng.randrange(1, 8))
        for _ in range(rng.randrange(0, 4))
    ]
    return MicroOp(kind=kind, pc=pc, sequence=sequence, address=address,
                   src_regs=src_regs, dst_reg=dst_reg,
                   execution_latency=latency, taken=taken, target=target,
                   force_mispredict=force, wrong_path=wrong_path,
                   is_context_switch=rng.random() < 0.1,
                   is_sandbox_entry=rng.random() < 0.1)


class TestRandomizedRoundTrip:
    """Property tests: pack/unpack is lossless for arbitrary op streams.

    ~200 seed-pinned random cases covering every op kind, every optional
    field and every flag combination, so a future change to the packed
    layout cannot silently drop information.
    """

    CASES = 200

    @pytest.mark.parametrize("case", range(CASES))
    def test_round_trip_is_lossless(self, case):
        rng = random.Random(0xC0DE + case)
        ops = [_random_op(rng, sequence)
               for sequence in range(rng.randrange(1, 40))]
        packed = PackedTrace.pack(ops)
        assert len(packed) == len(ops)
        restored = packed.unpack()
        assert restored == ops
        # Unpacked ops are independent copies: mutating one must not alias
        # the originals' wrong-path lists.
        for original, copy in zip(ops, restored):
            assert original.wrong_path == copy.wrong_path
            assert original.wrong_path is not copy.wrong_path or not original.wrong_path

    @pytest.mark.parametrize("case", range(0, CASES, 20))
    def test_repack_is_idempotent(self, case):
        """pack(unpack(packed)) reproduces every column exactly."""
        rng = random.Random(0xBEEF + case)
        ops = [_random_op(rng, sequence)
               for sequence in range(rng.randrange(1, 40))]
        once = PackedTrace.pack(ops)
        twice = PackedTrace.pack(once.unpack())
        assert once.kinds == twice.kinds
        assert once.flags == twice.flags
        assert once.pcs == twice.pcs
        assert once.addresses == twice.addresses
        assert once.latencies == twice.latencies
        assert once.srcs == twice.srcs
        assert once.dsts == twice.dsts
        assert once.targets == twice.targets
        assert once.wrong_paths == twice.wrong_paths
        assert once.sequences == twice.sequences

    @pytest.mark.parametrize("case", range(0, CASES, 20))
    def test_single_op_materialisation_matches(self, case):
        rng = random.Random(0xF00D + case)
        ops = [_random_op(rng, sequence) for sequence in range(16)]
        packed = PackedTrace.pack(ops)
        for index, op in enumerate(ops):
            assert packed.op(index) == op


class TestTracePackedCache:
    def test_packed_view_is_cached(self):
        trace = Trace(benchmark="demo", thread_id=0, process_id=0,
                      ops=_varied_ops())
        assert trace.packed() is trace.packed()

    def test_cache_invalidated_on_length_change(self):
        trace = Trace(benchmark="demo", thread_id=0, process_id=0,
                      ops=_varied_ops())
        first = trace.packed()
        trace.ops.append(MicroOp(kind=OpKind.NOP, pc=0x2000))
        second = trace.packed()
        assert second is not first
        assert len(second) == len(trace.ops)

    def test_explicit_invalidation(self):
        trace = Trace(benchmark="demo", thread_id=0, process_id=0,
                      ops=_varied_ops())
        first = trace.packed()
        trace.invalidate_packed()
        assert trace.packed() is not first

    def test_generator_emits_packed_traces(self):
        workload = TraceGenerator(get_profile("mcf"), seed=1).generate(200)
        for trace in workload:
            assert trace._packed is not None
            assert trace._packed.length == len(trace.ops)


def _dependency_chain(count, pc=0x40_000):
    """``count`` ALU ops on one line, chained through r1."""
    ops = [MicroOp(kind=OpKind.INT_ALU, pc=pc, dst_reg=1)]
    ops += [MicroOp(kind=OpKind.INT_ALU, pc=pc, src_regs=(1,), dst_reg=1,
                    execution_latency=2)
            for _ in range(count - 1)]
    return ops


class TestEmptyAndSingleOpExecution:
    """Engine-level pinning: degenerate traces return the entry clock."""

    def _core(self):
        config = default_system_config()
        return OutOfOrderCore(0, config, UnprotectedMemorySystem(config))

    def test_empty_trace_is_a_no_op_on_every_engine(self):
        for engine in ("packed", "per-op"):
            core = self._core()
            # Establish a non-trivial clock first, then run nothing.
            core.run_packed(PackedTrace.pack(_dependency_chain(4)))
            before = core.result()
            if engine == "packed":
                assert core.run_packed(PackedTrace.pack([])) \
                    == core._last_commit_time
            else:
                core.run([])
            assert core.result() == before, engine

    def test_single_op_trace_identical_across_engines(self):
        op = MicroOp(kind=OpKind.INT_ALU, pc=0x1000, src_regs=(1,),
                     dst_reg=2, execution_latency=3)
        packed = self._core()
        clock = packed.run_packed(PackedTrace.pack([op]))
        per_op = self._core()
        per_op.execute_op(op)
        assert (clock, packed.result()) \
            == (per_op._last_commit_time, per_op.result())
        assert packed.result().committed_instructions == 1
