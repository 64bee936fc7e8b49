"""Figure 8: cumulative protection mechanisms, Parsec."""

from conftest import run_once

from repro.experiments.figures import figure8


def test_figure8_cumulative_mechanisms_parsec(benchmark, options):
    result = run_once(benchmark, figure8, **options)
    print("\n" + result.to_markdown())
    labels = ["insecure L0", "fcache only", "coherency", "ifcache",
              "prefetching", "clear misspec"]
    assert all(label in result.geomeans for label in labels)
    # Clear-on-misspeculate is the most expensive optional mechanism.
    assert result.geomeans["clear misspec"] >= result.geomeans["prefetching"] - 0.03
