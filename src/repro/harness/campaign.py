"""Campaign execution: a benchmark × configuration × seed run matrix.

A :class:`Campaign` expands benchmark suites, labelled system
configurations and seeds into a flat list of :class:`RunSpec` cells,
executes them on a ``multiprocessing`` pool and collects the results.
Three properties make campaigns practical for paper-scale sweeps:

* **Parallelism** — cells are independent simulations, so they scale to
  the machine.  The worker count comes from the ``REPRO_JOBS`` environment
  variable (default: ``os.cpu_count()``).
* **Determinism** — each cell's seed is a pure function of the campaign
  seed and the replicate index, and cells never share mutable state, so a
  parallel campaign produces byte-identical results to a sequential one.
  Within a replicate every configuration sees the *same* workload trace
  per benchmark, which is what lets normalised execution times isolate
  the memory-system differences (the paper's methodology).
* **Incrementality** — when a :class:`~repro.harness.store.ResultStore`
  is attached, completed cells are persisted and skipped on re-runs, so
  extending a sweep only simulates the new cells.
* **Fault tolerance** — cells run through the supervised executor layer
  (:mod:`repro.harness.executor`): failed cells are retried with bounded
  deterministic backoff, hung or killed workers are detected and their
  cells re-dispatched, and cells that exhaust their retries are
  quarantined as :class:`~repro.harness.executor.FailedCell` records on
  :attr:`CampaignResult.failures` instead of aborting the sweep.
  Results are persisted as each cell completes, so interrupting or
  crashing a campaign loses at most the cells in flight — re-running the
  same command resumes by computing only the missing cells.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.params import SystemConfig
from repro.common.statistics import geometric_mean
from repro.harness.executor import (
    CellExecutionError,
    Executor,
    FailedCell,
    PoolExecutor,
    SerialExecutor,
)
from repro.harness.faults import active_fault_plan
from repro.harness.store import ResultStore, stable_key
from repro.sim.runner import (
    DEFAULT_WARMUP_FRACTION,
    NormalisedSeries,
    instructions_per_workload,
    parallel_jobs,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system
from repro.telemetry.log import get_logger, log_event
from repro.telemetry.phases import phase
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import WorkloadProfile, get_profile

DEFAULT_SEED = 1234

#: Progress callback: called with (cells_done, cells_total).
ProgressCallback = Callable[[int, int], None]


def derive_seed(base_seed: int, replicate: int) -> int:
    """Seed of one replicate: stable, collision-free, and equal to the
    base seed for replicate 0 so single-replicate campaigns reproduce the
    historical :class:`~repro.sim.runner.ExperimentRunner` numbers."""
    if replicate == 0:
        return base_seed
    return (base_seed + 0x9E3779B1 * replicate) & 0x7FFFFFFF


@dataclass(frozen=True)
class RunSpec:
    """One cell of the run matrix: a benchmark under one configuration."""

    profile: WorkloadProfile
    label: str
    config: SystemConfig
    instructions: int
    seed: int
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    collect_stats: bool = False

    @property
    def benchmark(self) -> str:
        return self.profile.name

    def key(self) -> str:
        """Stable content hash (the result-store key)."""
        return stable_key(self.profile, self.config, self.instructions,
                          self.seed, self.warmup_fraction,
                          self.collect_stats)


def run_cell(spec: RunSpec) -> SimulationResult:
    """Execute one cell from scratch (pure function of the spec).

    Trace generation goes through the workload trace cache
    (:mod:`repro.workloads.cache`), so a worker sweeping one benchmark
    across several configurations generates its trace once; pointing
    ``REPRO_TRACE_CACHE`` at a directory extends the sharing across
    workers and campaign invocations.
    """
    with phase("trace-gen"):
        workload = generate_workload(spec.profile, spec.instructions,
                                     seed=spec.seed)
    with phase("pack"):
        for trace in workload:
            trace.packed()
    with phase("build"):
        cores_needed = max(1, spec.profile.num_threads)
        system_config = spec.config.with_cores(max(spec.config.num_cores,
                                                   cores_needed))
        simulator = Simulator(build_system(system_config, seed=spec.seed))
    with phase("simulate"):
        return simulator.run(workload, collect_stats=spec.collect_stats,
                             warmup_fraction=spec.warmup_fraction)


@dataclass
class ExecutionStats:
    """Where each requested cell came from, and what executing cost.

    ``executed_seconds`` sums per-cell wall-clock measured inside the
    workers; ``wall_seconds`` is the caller-side wall-clock of the whole
    :func:`execute_cells` call; ``workers`` is the pool size actually
    used.  Their ratio is the pool's utilisation — low values mean the
    campaign is dominated by stragglers or pool overhead rather than
    simulation.
    """

    executed: int = 0
    store_hits: int = 0
    memory_hits: int = 0
    executed_seconds: float = 0.0
    wall_seconds: float = 0.0
    workers: int = 1
    #: Supervision accounting (see :mod:`repro.harness.executor`):
    #: re-dispatches of failed cells, per-cell timeouts fired, worker
    #: processes that died and were replaced, and cells quarantined after
    #: exhausting their retries.
    retries: int = 0
    timeouts: int = 0
    worker_restarts: int = 0
    failed: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.store_hits + self.memory_hits

    @property
    def cached_fraction(self) -> float:
        if not self.total:
            return 0.0
        return (self.store_hits + self.memory_hits) / self.total

    @property
    def worker_utilisation(self) -> float:
        """Fraction of the pool's wall-clock spent simulating, in [0, 1]."""
        if not self.executed or self.wall_seconds <= 0:
            return 0.0
        return min(1.0, self.executed_seconds
                   / (self.wall_seconds * max(1, self.workers)))

    def summary(self) -> str:
        """One human-readable line for reports and logs."""
        text = (f"{self.executed} executed, {self.store_hits} store hits, "
                f"{self.memory_hits} memory hits "
                f"({self.cached_fraction:.0%} cached)")
        if self.executed and self.wall_seconds > 0:
            text += (f"; {self.executed_seconds:.2f}s simulated work in "
                     f"{self.wall_seconds:.2f}s wall on {self.workers} "
                     f"worker(s), {self.worker_utilisation:.0%} utilisation")
        if self.retries or self.timeouts or self.worker_restarts \
                or self.failed:
            text += (f"; supervision: {self.retries} retries, "
                     f"{self.timeouts} timeouts, {self.worker_restarts} "
                     f"worker restarts, {self.failed} quarantined")
        return text


def execute_cells(specs: Sequence[RunSpec], *,
                  jobs: Optional[int] = None,
                  store: Optional[ResultStore] = None,
                  cache: Optional[Dict[str, SimulationResult]] = None,
                  stats: Optional[ExecutionStats] = None,
                  progress: Optional[ProgressCallback] = None,
                  executor: Optional[Executor] = None,
                  max_retries: Optional[int] = None,
                  cell_timeout: Optional[float] = None,
                  failures: Optional[List[FailedCell]] = None
                  ) -> Dict[str, SimulationResult]:
    """Execute cells, consulting the in-memory cache and result store.

    Returns a mapping from cell key to result covering every spec.  Cells
    missing from both caches run through the supervised executor layer
    (:mod:`repro.harness.executor`): a :class:`PoolExecutor` when
    ``jobs > 1``, a :class:`SerialExecutor` otherwise, or any
    ``executor`` passed explicitly.  Results land back in both caches —
    the store is written *as each cell completes*, so an interrupted run
    resumes from everything that finished.  The output is independent of
    the worker count, and of how many retries, timeouts or worker deaths
    occurred along the way.

    ``max_retries`` / ``cell_timeout`` configure the default executors
    (falling back to ``REPRO_MAX_RETRIES`` / ``REPRO_CELL_TIMEOUT``).
    Cells that fail permanently are appended to ``failures`` when a list
    is given; without one, a :class:`CellExecutionError` is raised after
    the surviving cells have completed (preserving the historical
    fail-fast contract for single-cell callers).

    ``progress`` (if given) is called with ``(done, total)`` over the
    *unique* cells: once up front for everything the caches satisfied,
    then once per finished (or quarantined) simulation.
    """
    jobs = parallel_jobs(default=None) if jobs is None else max(1, jobs)
    stats = stats if stats is not None else ExecutionStats()
    logger = get_logger("harness.campaign")
    started = time.perf_counter()
    results: Dict[str, SimulationResult] = {}
    pending: List[Tuple[str, RunSpec]] = []
    pending_keys: set = set()
    for spec in specs:
        key = spec.key()
        if key in results or key in pending_keys:
            continue
        if cache is not None and key in cache:
            results[key] = cache[key]
            stats.memory_hits += 1
            continue
        if store is not None:
            stored = store.get(key)
            if stored is not None:
                results[key] = stored
                stats.store_hits += 1
                continue
        pending.append((key, spec))
        pending_keys.add(key)

    total = len(results) + len(pending)
    progress_state = {"done": len(results)}
    if progress is not None:
        progress(progress_state["done"], total)

    failed_cells: List[FailedCell] = []
    if pending:
        stats.executed += len(pending)
        workers = (min(jobs, len(pending))
                   if jobs > 1 and len(pending) > 1 else 1)
        stats.workers = max(stats.workers, workers)
        if executor is None:
            executor = (PoolExecutor(workers, max_retries=max_retries,
                                     cell_timeout=cell_timeout)
                        if workers > 1
                        else SerialExecutor(max_retries=max_retries,
                                            cell_timeout=cell_timeout))
        log_event(logger, "execute_start", cells=len(pending),
                  cached=progress_state["done"], workers=workers,
                  executor=type(executor).__name__)
        fault_plan = active_fault_plan()

        def on_complete(key: str, spec: RunSpec, result: SimulationResult,
                        seconds: float) -> None:
            results[key] = result
            stats.executed_seconds += seconds
            if store is not None:
                # Persist immediately: a later crash or interrupt loses at
                # most the cells still in flight.
                store.put(key, result, metadata={
                    "benchmark": spec.benchmark,
                    "label": spec.label,
                    "mode": spec.config.mode_label,
                    "instructions": spec.instructions,
                    "seed": spec.seed,
                })
                if fault_plan is not None:
                    fault_plan.corrupt_store_entry(store, key)
            progress_state["done"] += 1
            log_event(logger, "cell_done", benchmark=spec.benchmark,
                      label=spec.label, seed=spec.seed,
                      seconds=f"{seconds:.2f}")
            if progress is not None:
                progress(progress_state["done"], total)

        def on_failure(failure: FailedCell) -> None:
            failed_cells.append(failure)
            progress_state["done"] += 1
            if progress is not None:
                progress(progress_state["done"], total)

        try:
            executor.execute(pending, stats=stats, on_complete=on_complete,
                             on_failure=on_failure)
        except KeyboardInterrupt:
            if isinstance(progress, _ProgressLine):
                progress.interrupt()
            stats.wall_seconds += time.perf_counter() - started
            log_event(logger, "execute_interrupted",
                      completed=progress_state["done"], total=total)
            raise

    if cache is not None:
        cache.update(results)
    # Deterministic iteration order regardless of completion order: rebuild
    # the mapping in first-seen spec order.
    ordered: Dict[str, SimulationResult] = {}
    for spec in specs:
        key = spec.key()
        if key in results and key not in ordered:
            ordered[key] = results[key]
    results = ordered
    stats.wall_seconds += time.perf_counter() - started
    if pending:
        log_event(logger, "execute_done", executed=stats.executed,
                  store_hits=stats.store_hits, memory_hits=stats.memory_hits,
                  failed=stats.failed, retries=stats.retries,
                  wall=f"{stats.wall_seconds:.2f}")
    if failed_cells:
        # Quarantine order follows the submission order, not the
        # nondeterministic completion order.
        submitted = {key: index for index, (key, _) in enumerate(pending)}
        failed_cells.sort(key=lambda cell: submitted.get(cell.key, 0))
        if failures is None:
            raise CellExecutionError(failed_cells)
        failures.extend(failed_cells)
    return results


def _progress_enabled() -> bool:
    """Progress-line gate: ``REPRO_PROGRESS`` override, else a TTY check."""
    raw = os.environ.get("REPRO_PROGRESS", "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    try:
        return sys.stderr.isatty()
    except Exception:
        return False


class _ProgressLine:
    """A live ``\\rcells done/total`` line on stderr, newline on completion."""

    def __init__(self, stream=None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._started = time.perf_counter()

    def __call__(self, done: int, total: int) -> None:
        elapsed = time.perf_counter() - self._started
        percent = (100 * done // total) if total else 100
        self._done, self._total = done, total
        self._stream.write(f"\rcells {done}/{total} ({percent}%) "
                           f"{elapsed:.1f}s")
        if done >= total:
            self._stream.write("\n")
        self._stream.flush()

    def interrupt(self) -> None:
        """End the live line cleanly on interruption (no dirty ``\\r``)."""
        done = getattr(self, "_done", 0)
        total = getattr(self, "_total", 0)
        self._stream.write(f"\rcells {done}/{total} — interrupted\n")
        self._stream.flush()


@dataclass
class CampaignResult:
    """Results of one campaign run, indexed by (benchmark, label, seed)."""

    benchmarks: List[str]
    labels: List[str]
    baseline_label: str
    seeds: List[int]
    runs: Dict[Tuple[str, str, int], SimulationResult]
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: Cells quarantined by the executor layer (exhausted retries).  The
    #: sweep completed without them; normalisation and geomeans cover the
    #: completed cells only, and reports annotate the gaps as FAILED.
    failures: List[FailedCell] = field(default_factory=list)

    def result(self, benchmark: str, label: str,
               seed: Optional[int] = None) -> SimulationResult:
        seed = self.seeds[0] if seed is None else seed
        try:
            return self.runs[(benchmark, label, seed)]
        except KeyError:
            for failure in self.failures:
                if (failure.benchmark, failure.label,
                        failure.seed) == (benchmark, label, seed):
                    raise KeyError(
                        f"cell ({benchmark}, {label}, seed {seed}) was "
                        f"quarantined after {failure.attempts} attempt(s): "
                        f"{failure.error}") from None
            raise

    def failed_series(self) -> set:
        """The ``(benchmark, label)`` pairs with at least one failed seed."""
        return {(failure.benchmark, failure.label)
                for failure in self.failures}

    def normalised(self) -> Dict[str, Dict[str, float]]:
        """label -> {benchmark -> execution time normalised to baseline}.

        Times are frequency-scaled
        (:attr:`~repro.sim.simulator.SimulationResult.time`): on machines
        whose cores all run at the reference clock this is exactly
        cycles / baseline cycles, while heterogeneous-frequency machines
        (big.LITTLE) are credited for their faster clocks.  With several
        replicates the per-seed ratios are averaged.

        Quarantined cells simply contribute no ratio: a benchmark whose
        every seed failed (in the series or in the baseline) is omitted
        from that series, and reports annotate the gap as FAILED.
        """
        series: Dict[str, Dict[str, float]] = {}
        for label in self.labels:
            if label == self.baseline_label:
                continue
            values: Dict[str, float] = {}
            for benchmark in self.benchmarks:
                ratios = []
                for seed in self.seeds:
                    baseline = self.runs.get((benchmark, self.baseline_label,
                                              seed))
                    run = self.runs.get((benchmark, label, seed))
                    if baseline is None or run is None:
                        continue
                    ratios.append(run.time / baseline.time
                                  if baseline.time else 0.0)
                if ratios:
                    values[benchmark] = sum(ratios) / len(ratios)
            series[label] = values
        return series

    def normalised_series(self) -> Dict[str, NormalisedSeries]:
        """The same data as :class:`~repro.sim.runner.NormalisedSeries`."""
        return {label: NormalisedSeries(label=label, values=values)
                for label, values in self.normalised().items()}

    def geomeans(self) -> Dict[str, float]:
        return {label: geometric_mean([v for v in values.values() if v > 0])
                for label, values in self.normalised().items()}

    @property
    def has_corun_results(self) -> bool:
        """True when any cell is a multi-programmed co-run mix."""
        return any(result.is_corun for result in self.runs.values())

    def per_constituent_normalised(self) -> Dict[str, Dict[str, float]]:
        """label -> {row -> normalised time}, with mixes split per member.

        Mix-aware counterpart of :meth:`normalised`: a co-run cell
        contributes one row per constituent, named ``mix:member`` and
        normalised against *that member's* execution time in the baseline
        run of the same mix (attribution via
        :attr:`~repro.sim.simulator.SimulationResult.core_benchmarks`),
        so the table shows how each program fared inside the mix rather
        than only the mix's completion time.  Single-program cells keep
        their plain benchmark row.  As in :meth:`normalised`, per-seed
        ratios are averaged.
        """
        # The baseline split is identical for every label; compute it once
        # per (benchmark, seed) rather than inside the label loop.
        baseline_parts = {
            (benchmark, seed): run.per_benchmark()
            for benchmark in self.benchmarks for seed in self.seeds
            for run in [self.runs.get((benchmark, self.baseline_label,
                                       seed))]
            if run is not None}
        series: Dict[str, Dict[str, float]] = {}
        for label in self.labels:
            if label == self.baseline_label:
                continue
            values: Dict[str, List[float]] = {}
            for benchmark in self.benchmarks:
                for seed in self.seeds:
                    baseline = self.runs.get((benchmark, self.baseline_label,
                                              seed))
                    run = self.runs.get((benchmark, label, seed))
                    if baseline is None or run is None:
                        continue
                    if run.is_corun:
                        base_parts = baseline_parts[(benchmark, seed)]
                        for member, part in run.per_benchmark().items():
                            base = base_parts.get(member)
                            ratio = (part.time / base.time
                                     if base is not None and base.time
                                     else 0.0)
                            values.setdefault(f"{benchmark}:{member}",
                                              []).append(ratio)
                    else:
                        ratio = (run.time / baseline.time
                                 if baseline.time else 0.0)
                        values.setdefault(benchmark, []).append(ratio)
            series[label] = {row: sum(ratios) / len(ratios)
                             for row, ratios in values.items()}
        return series

    def per_constituent_geomeans(self) -> Dict[str, float]:
        return {label: geometric_mean([v for v in values.values() if v > 0])
                for label, values
                in self.per_constituent_normalised().items()}


class Campaign:
    """A suite × configuration × seed matrix with an execution engine."""

    def __init__(self, benchmarks: Sequence[str],
                 configs: Mapping[str, SystemConfig],
                 baseline_config: Optional[SystemConfig] = None,
                 baseline_label: str = "baseline",
                 instructions: Optional[int] = None,
                 seed: int = DEFAULT_SEED,
                 replicates: int = 1,
                 warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                 collect_stats: bool = False,
                 store: Optional[ResultStore] = None,
                 jobs: Optional[int] = None,
                 cache: Optional[Dict[str, SimulationResult]] = None,
                 max_retries: Optional[int] = None,
                 cell_timeout: Optional[float] = None,
                 executor: Optional[Executor] = None
                 ) -> None:
        if not benchmarks:
            raise ValueError("campaign needs at least one benchmark")
        if not configs:
            raise ValueError("campaign needs at least one configuration")
        if baseline_label in configs:
            raise ValueError(
                f"baseline label {baseline_label!r} shadows a configuration")
        self.benchmarks = list(benchmarks)
        self.configs = dict(configs)
        self.baseline_config = baseline_config
        self.baseline_label = baseline_label
        self.instructions = instructions_per_workload(instructions)
        self.seed = seed
        self.replicates = max(1, replicates)
        self.warmup_fraction = warmup_fraction
        self.collect_stats = collect_stats
        self.store = store
        self.jobs = jobs
        # Supervision policy (None = the REPRO_MAX_RETRIES /
        # REPRO_CELL_TIMEOUT environment defaults); an explicit executor
        # overrides the jobs-based choice entirely.
        self.max_retries = max_retries
        self.cell_timeout = cell_timeout
        self.executor = executor
        # An external cache (e.g. an ExperimentRunner's) may be shared so
        # several campaigns reuse each other's in-memory results.
        self._cache: Dict[str, SimulationResult] = \
            cache if cache is not None else {}

    @classmethod
    def from_suites(cls, suites: Sequence[str], *args, **kwargs) -> "Campaign":
        """Build a campaign from suite / benchmark names (sorted, deduped)."""
        from repro.harness.suites import resolve_suites
        return cls(resolve_suites(suites), *args, **kwargs)

    @property
    def seeds(self) -> List[int]:
        return [derive_seed(self.seed, replicate)
                for replicate in range(self.replicates)]

    def _series(self) -> Dict[str, SystemConfig]:
        series = dict(self.configs)
        if self.baseline_config is not None:
            series[self.baseline_label] = self.baseline_config
        return series

    def cells(self) -> List[RunSpec]:
        """The full run matrix in a deterministic order."""
        specs: List[RunSpec] = []
        for seed in self.seeds:
            for benchmark in self.benchmarks:
                profile = get_profile(benchmark)
                for label, config in self._series().items():
                    specs.append(RunSpec(
                        profile=profile, label=label, config=config,
                        instructions=self.instructions, seed=seed,
                        warmup_fraction=self.warmup_fraction,
                        collect_stats=self.collect_stats))
        return specs

    def run(self, progress: Optional[ProgressCallback] = None
            ) -> CampaignResult:
        """Execute the matrix (parallel, cached) and index the results.

        ``progress`` overrides the live progress line: pass a callback to
        observe ``(done, total)`` yourself, or leave it ``None`` to get a
        ``\\r``-updating stderr line when stderr is a TTY (force with
        ``REPRO_PROGRESS=1``/``0``).
        """
        if progress is None and _progress_enabled():
            progress = _ProgressLine()
        stats = ExecutionStats()
        specs = self.cells()
        failures: List[FailedCell] = []
        results = execute_cells(specs, jobs=self.jobs, store=self.store,
                                cache=self._cache, stats=stats,
                                progress=progress, executor=self.executor,
                                max_retries=self.max_retries,
                                cell_timeout=self.cell_timeout,
                                failures=failures)
        return self._index_results(results, stats, failures)

    def partial_result(self) -> CampaignResult:
        """Index whatever the caches already hold, executing nothing.

        This is how an interrupted run reports the cells that completed
        (they were persisted as they finished): collect the cached subset,
        render a partial table, and leave the missing cells for the next
        invocation to compute.
        """
        results: Dict[str, SimulationResult] = {}
        for spec in self.cells():
            key = spec.key()
            if key in results:
                continue
            if key in self._cache:
                results[key] = self._cache[key]
            elif self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    results[key] = stored
        indexed = self._index_results(results, ExecutionStats(), [])
        # A partial table only shows rows with data; benchmarks whose
        # every cell is still missing would render as all-zero noise.
        present = {benchmark for benchmark, _, _ in indexed.runs}
        indexed.benchmarks = [benchmark for benchmark in indexed.benchmarks
                              if benchmark in present]
        return indexed

    def _index_results(self, results: Dict[str, SimulationResult],
                       stats: ExecutionStats,
                       failures: List[FailedCell]) -> CampaignResult:
        series = self._series()
        runs = {(spec.benchmark, spec.label, spec.seed): results[spec.key()]
                for spec in self.cells() if spec.key() in results}
        labels = [label for label in series if label != self.baseline_label]
        baseline_label = (self.baseline_label
                          if self.baseline_config is not None
                          else labels[0])
        return CampaignResult(
            benchmarks=list(self.benchmarks), labels=list(series),
            baseline_label=baseline_label, seeds=self.seeds, runs=runs,
            stats=stats, failures=failures)
