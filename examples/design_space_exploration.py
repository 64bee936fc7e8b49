"""Design-space exploration of the speculative filter cache.

Reproduces the tuning analysis of section 6.4 on a configurable subset of
Parsec: sweeps the filter-cache size (Figure 5) and associativity
(Figure 6) through the public facade (:func:`repro.api.compare`) and
prints the normalised execution times, so the 2 KiB / 4-way design point
the paper settles on can be checked.

The sweeps run through the campaign harness underneath the facade: the
size and associativity matrices execute on a worker pool (``REPRO_JOBS``
workers, default every core) and the per-cell results are cached in a
persistent store, so re-running the exploration — or widening a sweep —
only simulates the cells that have not been run before.

Run with:  python examples/design_space_exploration.py [instructions]
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro import api
from repro.harness.store import ResultStore
from repro.harness.suites import register_suite
from repro.sim.sweeps import (
    DEFAULT_ASSOCIATIVITY_SWEEP,
    DEFAULT_SIZE_SWEEP,
    filter_cache_associativity_configs,
    filter_cache_size_configs,
)

#: The Parsec workloads most sensitive to filter-cache geometry.
register_suite("fcache_sensitive",
               ["blackscholes", "streamcluster", "freqmine", "swaptions"])


def run_sweep(title, configs, instructions, store):
    comparison = api.compare(
        configs, suite="fcache_sensitive",
        machine=api.resolve_machine(None).with_cores(4),
        instructions=instructions, store=store)
    print(comparison.render(title=title))
    stats = comparison.result.stats
    print(f"[{stats.executed} simulated, {stats.store_hits} cached]")
    print()
    return comparison


def main() -> None:
    instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    store_dir = os.environ.get(
        "REPRO_STORE", os.path.join(tempfile.gettempdir(), "repro-dse"))
    store = ResultStore(store_dir)

    size_configs = {f"{size}B": config for size, config in
                    filter_cache_size_configs(DEFAULT_SIZE_SWEEP,
                                              num_cores=4).items()}
    size_sweep = run_sweep(
        "Normalised execution time vs fully associative filter-cache size",
        size_configs, instructions, store)

    ways_configs = {f"{ways}-way": config for ways, config in
                    filter_cache_associativity_configs(
                        DEFAULT_ASSOCIATIVITY_SWEEP, num_cores=4).items()}
    ways_sweep = run_sweep(
        "Normalised execution time vs 2 KiB filter-cache associativity",
        ways_configs, instructions, store)

    size_geomeans = size_sweep.geomeans()
    ways_geomeans = ways_sweep.geomeans()
    best_size = min(size_geomeans, key=size_geomeans.get)
    best_ways = min(ways_geomeans, key=ways_geomeans.get)
    print(f"result store: {store.root} ({len(store)} cells)")
    print(f"best size in this sweep: {best_size} "
          f"(geomean {size_geomeans[best_size]:.3f})")
    print(f"best associativity in this sweep: {best_ways} "
          f"(geomean {ways_geomeans[best_ways]:.3f})")


if __name__ == "__main__":
    main()
