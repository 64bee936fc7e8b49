"""Trace containers.

A :class:`Trace` is the unit of work a core executes: an ordered instruction
stream plus the metadata the experiment harness needs (which benchmark and
thread it models, which process it belongs to).  Multi-threaded workloads
(Parsec) are represented as a :class:`WorkloadTraces` bundle with one trace
per thread, all sharing one process/address space.

Traces exist in two representations:

* a list of :class:`~repro.cpu.instructions.MicroOp` objects — the boundary
  format used by the generators, attacks and tests;
* a :class:`PackedTrace` — a struct-of-arrays view (parallel lists of flag
  bitmasks, pcs, addresses, latencies and register ids) consumed by the
  zero-allocation core loop.  Packing precomputes the
  ``is_load/is_store/is_branch/is_transmitter`` classification as flag bits
  so the hot loop never touches :class:`~repro.cpu.instructions.OpKind`
  enum properties.

``PackedTrace.pack`` / ``PackedTrace.unpack`` are lossless converters
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cpu.instructions import (
    F_CONTEXT_SWITCH,
    F_FORCE_MISPREDICT,
    F_FORCE_MISPREDICT_VALUE,
    F_SANDBOX_ENTRY,
    F_TAKEN,
    KIND_FLAGS,
    MicroOp,
    OpKind,
    summarize_trace,
)

#: Index-order list of kinds, giving each a stable small integer code.
_KIND_CODES: List[OpKind] = list(OpKind)
_CODE_OF_KIND: Dict[OpKind, int] = {kind: code
                                    for code, kind in enumerate(_KIND_CODES)}

#: Sentinel for "no address / no target / no destination register".
_NONE = -1


class PackedTrace:
    """A struct-of-arrays instruction stream.

    Parallel plain-Python lists (one slot per op) instead of one object per
    op: the core loop reads each field with a single indexed load, all op
    classification is pre-folded into the ``flags`` bitmask, and running a
    trace allocates nothing per instruction.  Variable-size payloads
    (source-register tuples, wrong-path access lists) are stored by
    reference, so packing is cheap and lossless.
    """

    __slots__ = ("length", "kinds", "flags", "pcs", "addresses", "latencies",
                 "srcs", "dsts", "targets", "wrong_paths", "sequences")

    def __init__(self, length: int, kinds: List[int], flags: List[int],
                 pcs: List[int], addresses: List[int], latencies: List[int],
                 srcs: List[tuple], dsts: List[int], targets: List[int],
                 wrong_paths: List[list], sequences: List[int]) -> None:
        self.length = length
        self.kinds = kinds
        self.flags = flags
        self.pcs = pcs
        self.addresses = addresses
        self.latencies = latencies
        self.srcs = srcs
        self.dsts = dsts
        self.targets = targets
        self.wrong_paths = wrong_paths
        self.sequences = sequences

    def __len__(self) -> int:
        return self.length

    @classmethod
    def pack(cls, ops: Sequence[MicroOp]) -> "PackedTrace":
        """Convert a micro-op list into the packed representation."""
        length = len(ops)
        kinds = [0] * length
        flags = [0] * length
        pcs = [0] * length
        addresses = [_NONE] * length
        latencies = [0] * length
        srcs: List[tuple] = [()] * length
        dsts = [_NONE] * length
        targets = [_NONE] * length
        wrong_paths: List[list] = [None] * length  # type: ignore[list-item]
        sequences = [0] * length
        kind_flags = KIND_FLAGS
        code_of = _CODE_OF_KIND
        for i, op in enumerate(ops):
            op_flags = kind_flags[op.kind]
            if op.taken:
                op_flags |= F_TAKEN
            if op.is_context_switch:
                op_flags |= F_CONTEXT_SWITCH
            if op.is_sandbox_entry:
                op_flags |= F_SANDBOX_ENTRY
            if op.force_mispredict is not None:
                op_flags |= F_FORCE_MISPREDICT
                if op.force_mispredict:
                    op_flags |= F_FORCE_MISPREDICT_VALUE
            kinds[i] = code_of[op.kind]
            flags[i] = op_flags
            pcs[i] = op.pc
            if op.address is not None:
                addresses[i] = op.address
            latencies[i] = op.execution_latency
            if op.src_regs:
                srcs[i] = tuple(op.src_regs)
            if op.dst_reg is not None:
                dsts[i] = op.dst_reg
            if op.target is not None:
                targets[i] = op.target
            wrong_paths[i] = op.wrong_path
            sequences[i] = op.sequence
        return cls(length, kinds, flags, pcs, addresses, latencies, srcs,
                   dsts, targets, wrong_paths, sequences)

    def unpack(self) -> List[MicroOp]:
        """Rebuild the equivalent micro-op list (lossless inverse of pack)."""
        ops: List[MicroOp] = []
        for i in range(self.length):
            flags = self.flags[i]
            ops.append(MicroOp(
                kind=_KIND_CODES[self.kinds[i]],
                pc=self.pcs[i],
                sequence=self.sequences[i],
                address=None if self.addresses[i] == _NONE
                else self.addresses[i],
                src_regs=self.srcs[i],
                dst_reg=None if self.dsts[i] == _NONE else self.dsts[i],
                execution_latency=self.latencies[i],
                taken=bool(flags & F_TAKEN),
                target=None if self.targets[i] == _NONE else self.targets[i],
                force_mispredict=(bool(flags & F_FORCE_MISPREDICT_VALUE)
                                  if flags & F_FORCE_MISPREDICT else None),
                wrong_path=list(self.wrong_paths[i]),
                is_context_switch=bool(flags & F_CONTEXT_SWITCH),
                is_sandbox_entry=bool(flags & F_SANDBOX_ENTRY),
            ))
        return ops

    def op(self, index: int) -> MicroOp:
        """Materialise one op (debugging/inspection helper)."""
        flags = self.flags[index]
        return MicroOp(
            kind=_KIND_CODES[self.kinds[index]],
            pc=self.pcs[index],
            sequence=self.sequences[index],
            address=None if self.addresses[index] == _NONE
            else self.addresses[index],
            src_regs=self.srcs[index],
            dst_reg=None if self.dsts[index] == _NONE else self.dsts[index],
            execution_latency=self.latencies[index],
            taken=bool(flags & F_TAKEN),
            target=None if self.targets[index] == _NONE
            else self.targets[index],
            force_mispredict=(bool(flags & F_FORCE_MISPREDICT_VALUE)
                              if flags & F_FORCE_MISPREDICT else None),
            wrong_path=list(self.wrong_paths[index]),
            is_context_switch=bool(flags & F_CONTEXT_SWITCH),
            is_sandbox_entry=bool(flags & F_SANDBOX_ENTRY),
        )


@dataclass
class Trace:
    """One thread's instruction stream."""

    benchmark: str
    thread_id: int
    process_id: int
    ops: List[MicroOp] = field(default_factory=list)
    #: Cached packed view; built lazily (or eagerly by the generator).
    _packed: Optional[PackedTrace] = field(default=None, repr=False,
                                           compare=False)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def packed(self) -> PackedTrace:
        """The struct-of-arrays view of this trace (cached).

        The cache is invalidated when ``ops`` changes length; callers that
        mutate ops in place should call :meth:`invalidate_packed`.
        """
        if self._packed is None or self._packed.length != len(self.ops):
            self._packed = PackedTrace.pack(self.ops)
        return self._packed

    def invalidate_packed(self) -> None:
        self._packed = None

    def summary(self) -> Dict[str, float]:
        return summarize_trace(self.ops)


@dataclass
class WorkloadTraces:
    """All threads of one benchmark run."""

    benchmark: str
    suite: str
    traces: List[Trace] = field(default_factory=list)

    @property
    def num_threads(self) -> int:
        return len(self.traces)

    def total_instructions(self) -> int:
        return sum(len(trace) for trace in self.traces)

    def thread(self, index: int) -> Trace:
        return self.traces[index]

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)
