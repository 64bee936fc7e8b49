"""Figure 9: cumulative protection mechanisms, SPEC CPU2006."""

from conftest import run_once

from repro.experiments.figures import figure9


def test_figure9_cumulative_mechanisms_spec(benchmark, options):
    result = run_once(benchmark, figure9, **options)
    print("\n" + result.to_markdown())
    labels = ["insecure L0", "fcache only", "coherency", "ifcache",
              "prefetching", "clear misspec", "parallel L1d"]
    assert all(label in result.geomeans for label in labels)
    # Accessing the L0 and L1 in parallel recovers part of the serial-lookup
    # penalty relative to the full protection stack (the paper: 4% -> 2%).
    assert result.geomeans["parallel L1d"] <= result.geomeans["prefetching"] + 0.02
    # Clearing on every misspeculation costs extra on SPEC.
    assert result.geomeans["clear misspec"] >= result.geomeans["prefetching"] - 0.02
