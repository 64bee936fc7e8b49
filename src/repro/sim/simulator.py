"""The simulation driver.

Executes one workload (single-threaded, multi-threaded, or a multi-
programmed co-run *mix*) on a :class:`~repro.sim.system.SimulatedSystem`
and reports the execution time.  Workloads with several traces are
interleaved across cores in small instruction chunks so that the per-core
clocks advance roughly together and the threads' memory traffic interacts
in the shared caches and on the coherence bus, which is what the Parsec
experiments (Figures 4, 5, 6 and 8) and the cross-core attack scenarios
depend on.

For a co-run mix (see :mod:`repro.workloads.mixes`) each trace belongs to a
different benchmark and process: every core then runs its own program in
its own address space on its own private cache hierarchy, and the programs
contend in the shared LLC and on the bus.  :attr:`SimulationResult.core_benchmarks`
records which benchmark ran on which core and
:meth:`SimulationResult.per_benchmark` splits the aggregate back out.

Execution runs on the packed-trace fast path by default
(:meth:`~repro.cpu.core.OutOfOrderCore.run_packed` over index ranges — no
per-chunk slice copies, no per-op allocation).  Constructing the simulator
with ``use_packed=False`` drives the same traces through the per-op
:meth:`~repro.cpu.core.OutOfOrderCore.execute_op` boundary path instead;
the two are golden-tested to produce bit-identical results, which is also
what the hot-path benchmark uses to report the engine speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.cpu.core import CoreResult
from repro.sim.system import SimulatedSystem
from repro.workloads.trace import Trace, WorkloadTraces

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsSampler

#: The Table 1 core clock.  Execution *times* are reported in cycles of
#: this reference clock: a core running at a different
#: ``PipelineConfig.frequency_ghz`` has its cycle count scaled by
#: ``reference / frequency``, so a 2× faster clock halves the reported
#: time at identical cycle counts.  At the reference frequency the scale
#: factor is exactly 1.0 and times coincide with raw cycle counts.
REFERENCE_FREQUENCY_GHZ = 2.0


@dataclass
class SimulationResult:
    """Outcome of running one workload on one system."""

    benchmark: str
    mode: str
    cycles: int
    instructions: int
    core_results: List[CoreResult] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    warmup_cycles: int = 0
    #: Which benchmark each core executed (one entry per occupied core).
    #: For single-program workloads every entry equals :attr:`benchmark`;
    #: for a co-run mix this records the per-core placement.
    core_benchmarks: List[str] = field(default_factory=list)
    #: Per-core warm-up cycle/instruction counts (empty when no warm-up was
    #: run), so per-constituent views can exclude warm-up exactly as the
    #: aggregate numbers do.
    core_warmup_cycles: List[int] = field(default_factory=list)
    core_warmup_instructions: List[int] = field(default_factory=list)
    #: Per-core clock frequencies (one entry per ``core_results`` entry;
    #: empty means every core ran at the reference clock).  Applied as a
    #: cycle-time multiplier by the ``*_time``/``*_seconds`` accessors.
    core_frequencies_ghz: List[float] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # -- frequency-scaled times ----------------------------------------------
    def _frequencies(self) -> List[float]:
        if self.core_frequencies_ghz:
            return list(self.core_frequencies_ghz)
        return [REFERENCE_FREQUENCY_GHZ] * len(self.core_results)

    def core_times(self) -> List[float]:
        """Per-core post-warm-up execution time, in reference-clock cycles.

        A core at the reference frequency contributes exactly its cycle
        count; a core clocked ``k``× faster contributes ``cycles / k``.
        """
        warmups = list(self.core_warmup_cycles)
        warmups += [0] * (len(self.core_results) - len(warmups))
        return [(core.cycles - warmup)
                * (REFERENCE_FREQUENCY_GHZ / frequency)
                for core, warmup, frequency
                in zip(self.core_results, warmups, self._frequencies())]

    @property
    def time(self) -> float:
        """Execution time in reference-clock cycles (the report metric).

        Identical to ``float(cycles)`` when every core runs at the
        reference frequency, which keeps homogeneous results bit-identical
        to the historical cycle-based accounting.
        """
        if not self.core_results:
            return float(self.cycles)
        return max(self.core_times())

    def core_wall_seconds(self) -> List[float]:
        """Per-core post-warm-up wall-clock time in simulated seconds."""
        return [time / (REFERENCE_FREQUENCY_GHZ * 1e9)
                for time in self.core_times()]

    @property
    def wall_seconds(self) -> float:
        """Whole-workload wall-clock execution time in simulated seconds."""
        return self.time / (REFERENCE_FREQUENCY_GHZ * 1e9)

    @property
    def is_corun(self) -> bool:
        """True when different cores ran different benchmarks."""
        return len(set(self.core_benchmarks)) > 1

    def per_benchmark(self) -> Dict[str, "SimulationResult"]:
        """Split a co-run result into one aggregate per constituent.

        Each constituent's execution time is the maximum post-warm-up cycle
        count over the cores it occupied and its instruction count the sum
        of committed instructions minus warm-up over those cores, so the
        parts use exactly the accounting of the aggregate numbers.  The
        shared statistics tree is not split (it describes the whole
        machine) and is left empty on the parts.
        """
        warmup_cycles = (self.core_warmup_cycles
                         or [0] * len(self.core_results))
        warmup_instructions = (self.core_warmup_instructions
                               or [0] * len(self.core_results))
        frequencies = self._frequencies()
        parts: Dict[str, SimulationResult] = {}
        for benchmark in dict.fromkeys(self.core_benchmarks):
            rows = [(core, warm_cycles, warm_instructions, frequency)
                    for core, owner, warm_cycles, warm_instructions, frequency
                    in zip(self.core_results, self.core_benchmarks,
                           warmup_cycles, warmup_instructions, frequencies)
                    if owner == benchmark]
            parts[benchmark] = SimulationResult(
                benchmark=benchmark,
                mode=self.mode,
                cycles=max((core.cycles - warm_cycles
                            for core, warm_cycles, _, _ in rows), default=0),
                instructions=sum(core.committed_instructions
                                 - warm_instructions
                                 for core, _, warm_instructions, _ in rows),
                core_results=[core for core, _, _, _ in rows],
                core_benchmarks=[benchmark] * len(rows),
                core_warmup_cycles=[warm for _, warm, _, _ in rows],
                core_frequencies_ghz=[freq for _, _, _, freq in rows])
        return parts

    def normalised_to(self, baseline: "SimulationResult") -> float:
        """Execution time relative to a baseline run (the paper's metric)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles


class Simulator:
    """Runs traces on the cores of a simulated system."""

    #: Instructions executed per core before rotating to the next core.
    INTERLEAVE_CHUNK = 64

    def __init__(self, system: SimulatedSystem,
                 use_packed: bool = True,
                 sampler: Optional["MetricsSampler"] = None) -> None:
        self.system = system
        self.use_packed = use_packed
        # Time-series metrics (repro.telemetry.metrics): the sampler
        # snapshots the system's statistics tree at interleave boundaries.
        self.sampler = sampler
        if sampler is not None:
            sampler.bind(system)

    def run(self, workload: WorkloadTraces, collect_stats: bool = False,
            warmup_fraction: float = 0.0) -> SimulationResult:
        """Execute every thread of the workload; returns the timing summary.

        Threads are assigned to cores round-robin.  The workload's execution
        time is the maximum cycle count over all cores (the paper runs
        Parsec to completion and reports whole-program time).

        ``warmup_fraction`` plays the role of the paper's one-billion-
        instruction fast-forward: the first fraction of every trace is
        executed through the full timing model to warm the caches, TLBs and
        branch predictors, but its cycles are excluded from the reported
        execution time.
        """
        traces = list(workload)
        if not traces:
            raise ValueError("workload has no traces")
        if len(traces) > self.system.num_cores:
            raise ValueError(
                f"workload has {len(traces)} threads but the system has "
                f"only {self.system.num_cores} cores")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        warmup_cycles = 0
        warmup_ends: List[int] = []
        splits: List[int] = []
        if warmup_fraction > 0.0:
            splits = [int(len(trace.ops) * warmup_fraction)
                      for trace in traces]
            self._run_interleaved(
                traces, [(0, split) for split in splits])
            warmup_ends = [core.current_cycle for core in self.system.cores]
            warmup_cycles = max(warmup_ends)
            warmup_instructions = sum(splits)
            self._run_interleaved(
                traces, [(split, len(trace.ops))
                         for trace, split in zip(traces, splits)])
            self._drain_memory_system()
            core_results = [core.result() for core in self.system.cores]
            cycles = max(
                result.cycles - warmup_end
                for result, warmup_end in zip(core_results, warmup_ends))
            instructions = sum(result.committed_instructions
                               for result in core_results) - warmup_instructions
        else:
            self._run_interleaved(
                traces, [(0, len(trace.ops)) for trace in traces])
            self._drain_memory_system()
            core_results = [core.result() for core in self.system.cores]
            cycles = max(result.cycles for result in core_results)
            instructions = sum(result.committed_instructions
                               for result in core_results)
        if self.sampler is not None:
            self.sampler.finish(max(core.current_cycle
                                    for core in self.system.cores))
        stats = self.system.stats.as_dict() if collect_stats else {}
        config = self.system.config
        return SimulationResult(
            benchmark=workload.benchmark,
            mode=config.mode_label,
            cycles=cycles,
            instructions=instructions,
            core_results=core_results,
            stats=stats,
            warmup_cycles=warmup_cycles,
            core_benchmarks=[trace.benchmark for trace in traces],
            core_warmup_cycles=warmup_ends[:len(traces)],
            core_warmup_instructions=splits,
            core_frequencies_ghz=[
                config.core_config(core_id).pipeline.frequency_ghz
                for core_id in range(config.num_cores)])

    def run_trace_on_core(self, trace: Trace, core_index: int) -> CoreResult:
        """Run a single trace to completion on one core (test helper)."""
        core = self.system.core(core_index)
        core.process_id = trace.process_id
        if self.use_packed:
            core.run_packed(trace.packed())
            return core.result()
        return core.run(trace.ops)

    # -- internals ------------------------------------------------------------
    def _drain_memory_system(self) -> None:
        """Flush end-of-run buffers (e.g. pending prefetcher training)."""
        memory = self.system.memory_system
        for core in self.system.cores:
            memory.drain(core.core_id, core.current_cycle)

    def _run_interleaved(self, traces: List[Trace],
                         bounds: Sequence[Tuple[int, int]]) -> None:
        """Interleave execution of ``traces[i].ops[bounds[i]]`` across cores.

        Iterates by index over each trace's packed columns (or op list on
        the per-op path) — no per-chunk slice copies.
        """
        chunk = self.INTERLEAVE_CHUNK
        use_packed = self.use_packed
        packs = [trace.packed() if use_packed else None for trace in traces]
        cursors = [start for start, _ in bounds]
        ends = [end for _, end in bounds]
        done = [cursors[i] >= ends[i] for i in range(len(traces))]
        for thread_id, trace in enumerate(traces):
            self.system.core(thread_id).process_id = trace.process_id
        remaining = done.count(False)
        sampler = self.sampler
        while remaining:
            for thread_id, trace in enumerate(traces):
                if done[thread_id]:
                    continue
                core = self.system.core(thread_id)
                start = cursors[thread_id]
                end = min(ends[thread_id], start + chunk)
                if use_packed:
                    core.run_packed(packs[thread_id], start, end)
                else:
                    ops = trace.ops
                    execute_op = core.execute_op
                    for index in range(start, end):
                        execute_op(ops[index])
                cursors[thread_id] = end
                if end >= ends[thread_id]:
                    done[thread_id] = True
                    remaining -= 1
            if sampler is not None:
                sampler.on_cycle(max(
                    self.system.core(thread_id).current_cycle
                    for thread_id in range(len(traces))))
