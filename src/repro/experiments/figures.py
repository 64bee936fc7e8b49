"""Reproduction of every performance figure in the paper's evaluation.

Each ``figure*`` function runs the simulations behind the corresponding
exhibit and returns a :class:`FigureResult`: the per-benchmark series the
figure plots plus the headline aggregate the text quotes.

The functions are small wrappers over :func:`repro.api.compare` (Figure 7:
:func:`repro.api.simulate`), so they can be called both from the
pytest-benchmark harness (one benchmark per figure) and from the examples.
Their keyword ``options`` are the facade's own: ``instructions`` (default
``REPRO_INSTRUCTIONS``), ``seed``, ``store`` (a
:class:`~repro.harness.store.ResultStore` that persists cells across
invocations and lets figures share their baselines) and ``jobs``.  Unlike
:func:`~repro.api.compare`, a figure runs on one worker unless ``jobs`` or
``REPRO_JOBS`` asks for a pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro import api
from repro.common.params import SystemConfig
from repro.common.statistics import geometric_mean
from repro.harness.campaign import DEFAULT_SEED
from repro.harness.report import Report
from repro.sim.runner import (
    cumulative_protection_configs,
    parallel_jobs,
    standard_modes,
    unprotected_config,
)
from repro.sim.sweeps import (
    DEFAULT_ASSOCIATIVITY_SWEEP,
    DEFAULT_SIZE_SWEEP,
    filter_cache_associativity_configs,
    filter_cache_size_configs,
)
from repro.workloads.profiles import (
    parsec_benchmarks,
    spec_benchmarks,
)


@dataclass
class FigureResult:
    """One reproduced exhibit: per-benchmark series plus aggregates."""

    figure: str
    description: str
    benchmarks: List[str]
    #: series label -> {benchmark -> normalised execution time (or rate)}
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: series label -> geometric mean across benchmarks
    geomeans: Dict[str, float] = field(default_factory=dict)

    def compute_geomeans(self) -> None:
        self.geomeans = {
            label: geometric_mean([value for value in values.values()
                                   if value > 0])
            for label, values in self.series.items()
        }

    def to_report(self) -> Report:
        """This figure's table as a :class:`repro.harness.report.Report`."""
        return Report(benchmarks=list(self.benchmarks),
                      series={label: dict(values)
                              for label, values in self.series.items()},
                      geomeans=dict(self.geomeans),
                      title=self.description)

    def rows(self) -> List[List[str]]:
        """A printable table: one row per benchmark plus the geomean."""
        return self.to_report().rows()

    def format_table(self) -> str:
        return self.to_report().to_text()

    def to_markdown(self) -> str:
        return self.to_report().to_markdown()

    def to_csv(self) -> str:
        return self.to_report().to_csv()


def _normalised_figure(figure: str, description: str,
                       benchmarks: Sequence[str],
                       configs: Mapping[str, SystemConfig],
                       baseline: SystemConfig,
                       options: Dict[str, Any]) -> FigureResult:
    """Run ``configs`` × ``benchmarks`` against ``baseline`` and tabulate."""
    if options.get("jobs") is None:
        # Sequential unless asked: tests and one-off calls stay in-process.
        options["jobs"] = parallel_jobs(default=1)
    comparison = api.compare(configs, list(benchmarks), baseline=baseline,
                             **options)
    result = FigureResult(figure=figure, description=description,
                          benchmarks=list(benchmarks),
                          series=comparison.normalised())
    result.compute_geomeans()
    return result


def figure3(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> FigureResult:
    """Figure 3: SPEC CPU2006 normalised execution time for all five schemes."""
    return _normalised_figure(
        "figure3",
        "Normalised execution time, SPEC CPU2006: MuonTrap vs "
        "InvisiSpec and STT (lower is better)",
        benchmarks or spec_benchmarks(), standard_modes(num_cores=1),
        unprotected_config(num_cores=1), options)


def figure4(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> FigureResult:
    """Figure 4: Parsec (4 threads) normalised execution time."""
    return _normalised_figure(
        "figure4",
        "Normalised execution time, Parsec with 4 threads: "
        "MuonTrap vs InvisiSpec and STT (lower is better)",
        benchmarks or parsec_benchmarks(), standard_modes(num_cores=4),
        unprotected_config(num_cores=4), options)


def figure5(benchmarks: Optional[Sequence[str]] = None,
            sizes: Optional[Sequence[int]] = None,
            **options: Any) -> FigureResult:
    """Figure 5: fully associative filter-cache size sweep on Parsec."""
    configs = {f"{size}B": config for size, config in
               filter_cache_size_configs(sizes or DEFAULT_SIZE_SWEEP,
                                         num_cores=4).items()}
    return _normalised_figure(
        "figure5",
        "Normalised execution time with a fully associative "
        "data filter cache of varying size, Parsec",
        benchmarks or parsec_benchmarks(), configs,
        unprotected_config(num_cores=4), options)


def figure6(benchmarks: Optional[Sequence[str]] = None,
            associativities: Optional[Sequence[int]] = None,
            **options: Any) -> FigureResult:
    """Figure 6: associativity sweep of the 2 KiB filter cache on Parsec."""
    configs = {f"{ways}-way": config for ways, config in
               filter_cache_associativity_configs(
                   associativities or DEFAULT_ASSOCIATIVITY_SWEEP,
                   num_cores=4).items()}
    return _normalised_figure(
        "figure6",
        "Normalised execution time when varying the "
        "associativity of a 2 KiB filter cache, Parsec",
        benchmarks or parsec_benchmarks(), configs,
        unprotected_config(num_cores=4), options)


def figure7(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> FigureResult:
    """Figure 7: proportion of writes triggering filter-cache invalidates.

    One inline :func:`repro.api.simulate` per benchmark, so ``jobs`` is
    accepted for uniformity with the other figures and has no effect.
    """
    options.pop("jobs", None)
    benchmarks = list(benchmarks or spec_benchmarks())
    rates: Dict[str, float] = {}
    for benchmark in benchmarks:
        outcome = api.simulate(benchmark, "muontrap", warmup_fraction=0.0,
                               collect_stats=True, **options)
        stores = outcome.stats.get(
            "system.memory_system.committed_stores", 0)
        broadcasts = outcome.stats.get(
            "system.memory_system.store_filter_broadcasts", 0)
        rates[benchmark] = broadcasts / stores if stores else 0.0
    result = FigureResult(
        figure="figure7",
        description="Proportion of committed stores that trigger a "
                    "filter-cache invalidation broadcast under MuonTrap, "
                    "SPEC CPU2006",
        benchmarks=benchmarks,
        series={"write fcache-invalidate rate": rates})
    mean = sum(rates.values()) / len(rates) if rates else 0.0
    result.geomeans = {"write fcache-invalidate rate": mean}
    return result


def figure8(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> FigureResult:
    """Figure 8: cumulative protection mechanisms on Parsec."""
    return _normalised_figure(
        "figure8",
        "Normalised execution time from cumulatively adding "
        "protection mechanisms, Parsec",
        benchmarks or parsec_benchmarks(),
        cumulative_protection_configs(num_cores=4,
                                      include_parallel_l1=False),
        unprotected_config(num_cores=4), options)


def figure9(benchmarks: Optional[Sequence[str]] = None,
            **options: Any) -> FigureResult:
    """Figure 9: cumulative protection mechanisms on SPEC CPU2006."""
    return _normalised_figure(
        "figure9",
        "Normalised execution time from cumulatively adding "
        "protection mechanisms, SPEC CPU2006",
        benchmarks or spec_benchmarks(),
        cumulative_protection_configs(num_cores=1,
                                      include_parallel_l1=True),
        unprotected_config(num_cores=1), options)


def metrics_over_time(benchmark: str, scheme: str = "muontrap",
                      every: int = 1000, *,
                      seed: int = DEFAULT_SEED,
                      instructions: Optional[int] = None):
    """A benchmark's metrics sampled every N cycles, for over-time plots.

    Runs one instrumented simulation through :func:`repro.api.simulate`
    and returns its :class:`~repro.telemetry.metrics.TimeSeries` — MPKI,
    squash rate or filter occupancy over simulated time, e.g.::

        series = metrics_over_time("mcf", "muontrap", every=1000)
        mpki = series.rate("system.memory_system.data_misses",
                           "system.core0.committed_instructions",
                           scale=1000)

    The figures above plot end-of-run aggregates; this is the entry point
    for the time-resolved view of the same runs.
    """
    outcome = api.simulate(
        benchmark, scheme, seed=seed, instructions=instructions,
        warmup_fraction=0.0, collect_stats=True, metrics_every=every)
    return outcome.timeseries


ALL_FIGURES = {
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
}
