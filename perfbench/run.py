#!/usr/bin/env python3
"""Host-time benchmark of the MuonTrap reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cell-mcf-muontrap --seed 1234 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with every layer's public methods
wrapped and reports per-layer self times, call counts and ratios.  Every
simulated result is checked against the reference (see ``scenarios.py``);
a mismatch, a failed cell or a broken trace invariant makes the run exit
non-zero.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries quartiles, sample counts and the host description.
Times are reference-host seconds (see ``hostspeed.py``).

``--record-reference`` rewrites ``reference.json`` from the per-op engine
at the default seed.  See ``README.md`` beside this file for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working directory for result stores, removed when the run ends.
WORK = ROOT / ".perfbench_work" / str(os.getpid())

#: Settings the program reads from the environment.  Cleared so every run
#: measures the defaults a user gets; the benchmark passes sizes, seeds,
#: worker counts and stores explicitly.
CLEARED_ENV = ("REPRO_INSTRUCTIONS", "REPRO_JOBS", "REPRO_TRACE_CACHE",
               "REPRO_SHARED_TRACES", "REPRO_MAX_RETRIES",
               "REPRO_CELL_TIMEOUT", "REPRO_FAULTS", "REPRO_LOG")
CLEARED_PREFIXES = ("REPRO_STORE",)
PINNED_ENV = {"REPRO_PROGRESS": "0"}

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fewest timed repetitions, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fewest traced runs: their call counts must repeat exactly.
MIN_TRACED = 2
#: Allowed |cpu + layer self times - traced wall|, in seconds.
CLOSURE_TOLERANCE_S = 1e-6

#: Per-layer harness metrics; the cells bypass the harness and report 0.
HARNESS_METRICS = {"harness.pool_utilisation": "ratio",
                   "harness.executed_s": "s",
                   "harness.shared_traces": "count",
                   "harness.retries": "count",
                   "harness.store.put.calls": "count",
                   "harness.store.put_s": "s"}

#: Call counts reported per layer (``<name>.calls``).
REPORTED_CALLS = (
    "core.load", "core.fetch", "core.store_address_ready",
    "core.commit_load", "core.commit_store", "core.commit_fetch",
    "core.squash",
    "core.filter.lookup", "core.filter.fill", "core.filter.mark_committed",
    "core.filter.flush",
    "baselines.load", "baselines.fetch",
    "caches.lookup", "caches.fill", "caches.hierarchy.access",
    "caches.hierarchy.read_for_filter", "caches.hierarchy.commit_fill_l1",
    "caches.hierarchy.commit_store",
    "tlb.translate_address", "tlb.commit_translation", "tlb.walk",
    "coherence.snoop", "coherence.broadcast_filter_invalidate",
    "prefetch.train", "memory.read", "memory.write",
)


class Run:
    """Counts, samples and per-layer values of one benchmark invocation."""

    def __init__(self) -> None:
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.samples: Dict[str, List[float]] = {}
        self.values: Dict[str, float] = {}
        self.units: Dict[str, str] = {}
        self.digests: List[Tuple[str, str]] = []
        self.notes: Dict[str, object] = {}

    def sample(self, name: str, value: float, unit: str) -> None:
        self.samples.setdefault(name, []).append(value)
        self.units[name] = unit

    def value(self, name: str, value: float, unit: str) -> None:
        self.values[name] = value
        self.units[name] = unit

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def check(self, expected: Dict[str, str]) -> None:
        """Count every recorded digest that differs from the reference."""
        for key, value in self.digests:
            if expected.get(key) != value:
                self.fail(f"{key}: digest {value[:12]} != reference "
                          f"{str(expected.get(key))[:12]}")

    def metrics(self) -> Dict[str, Dict[str, object]]:
        values = dict(self.values)
        values.update({name: statistics.median(samples)
                       for name, samples in self.samples.items()})
        return {name: {"value": value, "unit": self.units[name]}
                for name, value in values.items()}

    def spread(self) -> Dict[str, Dict[str, float]]:
        """Median, quartiles and sample count of every sampled series and
        of the clock's scale factors."""
        series = dict(self.samples,
                      reference_s_per_raw_s=self.clock.factors)
        return {name: summarise(values)
                for name, values in series.items() if values}


def summarise(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# -- environment --------------------------------------------------------------

def pin_environment() -> None:
    for name in list(os.environ):
        if name in CLEARED_ENV or name.startswith(CLEARED_PREFIXES):
            del os.environ[name]
    os.environ.update(PINNED_ENV)


def host_description() -> Dict[str, object]:
    from repro.common.params import SystemConfig
    vectorized = getattr(SystemConfig(), "use_vectorized", False)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.util.find_spec("numpy") is not None,
            "default_engine": "vectorized" if vectorized else "packed"}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def assert_untraced() -> None:
    from repro.telemetry.tracer import active_tracer
    if active_tracer() is not None:
        raise RuntimeError("a telemetry tracer is active in an untraced run")


# -- cells --------------------------------------------------------------------

def cell_setup(run: Run, spec, trace: bool):
    """Cold trace generation, packing and system construction, repeated."""
    from repro.sim.system import build_system
    from repro.workloads.cache import reset_trace_cache
    import scenarios

    generate, build = [], []
    for _ in range(SETUP_REPEATS):
        reset_trace_cache()
        (workload, config), seconds, _ = run.clock.time(
            lambda: scenarios.prepare(spec))
        generate.append(seconds)
        _, seconds, _ = run.clock.time(
            lambda: build_system(config, seed=spec.seed))
        build.append(seconds)
    if trace:
        run.value("workloads.generate_s", median(generate), "s")
        run.value("sim.build_system_s", median(build), "s")
        run.value("workloads.ops",
                  sum(len(thread.ops) for thread in workload), "count")
    else:
        run.value("setup_s", median(
            [g + b for g, b in zip(generate, build)]), "s")
    return workload, config


def cell_rep(run: Run, spec, workload, config,
             layer_trace=None) -> Optional[Tuple[float, float]]:
    """Simulate the cell once on a fresh system.

    Returns the clock's ``(reference seconds, factor)``, or None if the
    cell raised.
    """
    from repro.sim.system import build_system
    import scenarios

    run.attempted += 1
    try:
        system = build_system(config, seed=spec.seed)
        gc.collect()
        if layer_trace is None:
            assert_untraced()
            result, seconds, factor = run.clock.time(
                lambda: scenarios.simulate(spec, workload, system))
        else:
            result, seconds, factor = run.clock.time(lambda: layer_trace.run(
                system, lambda: scenarios.simulate(spec, workload, system)))
    except Exception:  # noqa: BLE001 — counted as a failed operation
        traceback.print_exc()
        run.fail(f"{scenarios.cell_key(spec)} raised")
        return None
    run.digests.append((scenarios.cell_key(spec), scenarios.digest(result)))
    run.notes["instructions"] = scenarios.instructions_executed(result)
    return seconds, factor


def bench_cell(run: Run, name: str, seed: int, seconds: float,
               trace: bool) -> None:
    import scenarios

    spec = scenarios.cell_spec(name, seed)
    workload, config = cell_setup(run, spec, trace)
    cell_rep(run, spec, workload, config)  # warm-up, checked but untimed
    if trace:
        trace_cell(run, spec, workload, config, seconds)
    else:
        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < MIN_REPS or time.perf_counter() < deadline:
            reps += 1
            timing = cell_rep(run, spec, workload, config)
            if timing is not None:
                wall = timing[0]
                instructions = run.notes["instructions"]
                run.sample("sim_kips", instructions / wall / 1e3, "kips")
                run.sample("cells_per_s", 1.0 / wall, "1/s")
        run.value("peak_rss_mb", peak_rss_mb(), "MiB")
    run.check(scenarios.reference_digests(name, [spec], jobs=1))


def trace_cell(run: Run, spec, workload, config, seconds: float) -> None:
    from layers import LayerTrace

    untraced = [cell_rep(run, spec, workload, config)
                for _ in range(MIN_REPS)]
    deadline = time.perf_counter() + seconds
    traced = []
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        layer_trace = LayerTrace()
        timing = cell_rep(run, spec, workload, config, layer_trace)
        if timing is None:
            return
        traced.append((layer_trace, timing[1]))
    if None in untraced:
        return
    report_layers(run, traced, median([wall for wall, _ in untraced]))
    for name, unit in HARNESS_METRICS.items():
        run.value(name, 0, unit)


# -- campaign -----------------------------------------------------------------

def fresh_store(tag: str):
    from repro.harness.store import open_store
    path = WORK / tag
    shutil.rmtree(path, ignore_errors=True)
    return path, open_store(path)


def campaign_setup(run: Run, seed: int, jobs: int, trace: bool):
    import scenarios

    def setup(index: int):
        path, store = fresh_store(f"setup{index}")
        return path, scenarios.build_campaign(seed, store, jobs)

    setups = []
    for index in range(SETUP_REPEATS):
        (path, campaign), seconds, _ = run.clock.time(lambda: setup(index))
        setups.append(seconds)
        shutil.rmtree(path, ignore_errors=True)
    if not trace:
        run.value("setup_s", median(setups), "s")
    return campaign.cells()


def campaign_rep(run: Run, seed: int, jobs: int, specs, tag: str,
                 on_store: Callable = lambda store: None):
    """One ``api.compare`` of the matrix on a fresh store and cold traces.

    Returns ``(reference seconds, factor, instructions, stats)``.
    """
    from repro.workloads.cache import reset_trace_cache
    import scenarios

    path, store = fresh_store(tag)
    on_store(store)
    reset_trace_cache()
    gc.collect()
    assert_untraced()
    run.attempted += len(specs)
    try:
        outcome, seconds, factor = run.clock.time(
            lambda: scenarios.compare_campaign(seed, store, jobs))
    finally:
        shutil.rmtree(path, ignore_errors=True)
    result = outcome.result
    stats = result.stats
    for failure in result.failures:
        run.fail(f"quarantined {failure}")
    cached = stats.store_hits + stats.memory_hits
    if cached:
        run.fail(f"{cached} cell(s) served from a cache, not executed")
    instructions = 0
    for spec in specs:
        cell = result.runs.get((spec.benchmark, spec.label, spec.seed))
        if cell is None:
            if not result.failures:
                run.fail(f"{scenarios.cell_key(spec)} missing")
            continue
        run.digests.append((scenarios.cell_key(spec),
                            scenarios.digest(cell)))
        instructions += scenarios.instructions_executed(cell)
    return seconds, factor, instructions, stats


def bench_campaign(run: Run, seed: int, seconds: float,
                   trace: bool) -> None:
    import scenarios

    jobs = min(2, os.cpu_count() or 1)
    with run.clock.parallel(jobs):
        specs = campaign_setup(run, seed, jobs, trace)
        if trace:
            trace_campaign(run, seed, jobs, specs, seconds)
        else:
            deadline = time.perf_counter() + seconds
            reps = 0
            while reps < MIN_REPS or time.perf_counter() < deadline:
                reps += 1
                wall, _, instructions, _ = campaign_rep(
                    run, seed, jobs, specs, f"rep{reps}")
                run.sample("cells_per_s", len(specs) / wall, "1/s")
                run.sample("sim_kips", instructions / wall / 1e3, "kips")
            run.value("peak_rss_mb", peak_rss_mb(), "MiB")
    run.check(scenarios.reference_digests(scenarios.CAMPAIGN, specs, jobs))


def serial_pass(run: Run, specs, layer_trace=None) -> Dict[str, float]:
    """Every cell of the matrix in this process, traced or not.

    Returns per-pass totals in raw seconds.
    """
    from repro.sim.system import build_system
    from repro.workloads.cache import reset_trace_cache
    import scenarios

    def timed(function):
        start = time.perf_counter()
        result = function()
        return result, time.perf_counter() - start

    totals = {"wall": 0.0, "generate": 0.0, "build": 0.0, "ops": 0}
    generated = set()
    reset_trace_cache()
    for spec in specs:
        (workload, config), seconds = timed(lambda: scenarios.prepare(spec))
        totals["generate"] += seconds
        if spec.benchmark not in generated:
            generated.add(spec.benchmark)
            totals["ops"] += sum(len(thread.ops) for thread in workload)
        system, seconds = timed(lambda: build_system(config, seed=spec.seed))
        totals["build"] += seconds
        run.attempted += 1
        if layer_trace is None:
            assert_untraced()
            result, wall = timed(
                lambda: scenarios.simulate(spec, workload, system))
        else:
            result, wall = timed(lambda: layer_trace.run(
                system, lambda: scenarios.simulate(spec, workload, system)))
        totals["wall"] += wall
        run.digests.append((scenarios.cell_key(spec),
                            scenarios.digest(result)))
    return totals


def trace_campaign(run: Run, seed: int, jobs: int, specs,
                   seconds: float) -> None:
    """Harness numbers from a parallel run, layer numbers from serial passes.

    Wrappers installed in pool workers die with them, so the per-layer
    attribution comes from traced serial passes over the same cells.
    """
    from layers import LayerTrace

    put = {"calls": 0, "seconds": 0.0}

    def wrap_put(store) -> None:
        original = store.put

        def timed_put(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                put["seconds"] += time.perf_counter() - start
                put["calls"] += 1
        store.put = timed_put

    _, factor, _, stats = campaign_rep(run, seed, jobs, specs,
                                       "traced-parallel", on_store=wrap_put)
    run.value("harness.pool_utilisation", stats.executed_seconds
              / (stats.wall_seconds * max(1, stats.workers)), "ratio")
    run.value("harness.executed_s", stats.executed_seconds * factor, "s")
    run.value("harness.shared_traces", getattr(stats, "shared_traces", 0),
              "count")
    run.value("harness.retries", stats.retries, "count")
    run.value("harness.store.put.calls", put["calls"], "count")
    run.value("harness.store.put_s", put["seconds"] * factor, "s")

    untraced, _, factor = run.clock.time(lambda: serial_pass(run, specs))
    deadline = time.perf_counter() + seconds
    traced, passes = [], []
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        layer_trace = LayerTrace()
        totals, _, pass_factor = run.clock.time(
            lambda: serial_pass(run, specs, layer_trace))
        traced.append((layer_trace, pass_factor))
        passes.append({key: value * pass_factor
                       for key, value in totals.items() if key != "ops"})
    report_layers(run, traced, untraced["wall"] * factor)
    run.value("workloads.generate_s",
              median([totals["generate"] for totals in passes]), "s")
    run.value("sim.build_system_s",
              median([totals["build"] for totals in passes]), "s")
    run.value("workloads.ops", untraced["ops"], "count")


# -- per-layer report ---------------------------------------------------------

def report_layers(run: Run, traced, untraced_wall: float) -> None:
    """Self times (medians over traced runs), counts, ratios, overhead.

    ``traced`` pairs each :class:`layers.LayerTrace` with its run's clock
    factor; ``untraced_wall`` is in reference seconds.
    """
    from layers import LAYERS

    for layer_trace, _ in traced:
        error = layer_trace.closure_error()
        if error > CLOSURE_TOLERANCE_S:
            run.fail(f"layer self times miss the traced wall by {error:.3g}s")
    first = traced[0][0]
    for layer_trace, _ in traced[1:]:
        if (layer_trace.calls != first.calls
                or layer_trace.outcomes != first.outcomes):
            run.fail("call counts differ between traced runs")
    for layer in LAYERS:
        run.value(f"{layer}.self_s", median(
            [trace.layer_self_s()[layer] * factor
             for trace, factor in traced]), "s")
    for name in REPORTED_CALLS:
        run.value(f"{name}.calls", first.calls[name], "count")
    run.value("coherence.nacks", first.calls["coherence.record_nack"],
              "count")
    for name, value in first.ratios().items():
        run.value(name, value, "ratio")
    traced_wall = median([trace.wall_s * factor for trace, factor in traced])
    run.value("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    run.notes["calls"] = dict(sorted(first.calls.items()))


# -- entry point --------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see README.md)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="input seed (default 1234, the recorded one)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer traced run")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the per-op engine")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def import_seconds(run: Run) -> float:
    """Median time to import the simulator in a fresh interpreter.

    Measured after the timed window, so that these interpreters do not
    count towards ``peak_rss_mb``.
    """
    command = [sys.executable, "-c",
               f"import sys; sys.path.insert(0, {str(SRC)!r}); "
               f"import repro.api"]
    times = []
    for _ in range(SETUP_REPEATS):
        _, seconds, _ = run.clock.time(
            lambda: subprocess.run(command, check=True))
        times.append(seconds)
    return median(times)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    run = Run()
    sys.path.insert(0, str(SRC))
    import scenarios

    if args.record_reference:
        path = scenarios.record_reference(jobs=min(2, os.cpu_count() or 1))
        print(f"wrote {path}")
        return 0
    if args.workload not in scenarios.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == scenarios.CAMPAIGN:
            bench_campaign(run, args.seed, args.seconds, bool(args.trace))
        else:
            bench_cell(run, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if "setup_s" in run.values:
        run.values["setup_s"] += import_seconds(run)
    metrics = run.metrics()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops": run.attempted, "ops_failed": run.failed,
              "host": host_description(), "spread": run.spread(),
              **run.notes}
    for name, metric in sorted(metrics.items()):
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(detail, sort_keys=True))
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
