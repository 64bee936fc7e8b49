"""Figure 4: Parsec (4 threads) normalised execution time for all schemes."""

from conftest import run_once

from repro.experiments.figures import figure4


def test_figure4_parsec(benchmark, options):
    result = run_once(benchmark, figure4, **options)
    print("\n" + result.to_markdown())
    # MuonTrap should be the cheapest protection scheme on Parsec.
    muontrap = result.geomeans["MuonTrap"]
    assert muontrap <= min(result.geomeans["InvisiSpec-Spectre"],
                           result.geomeans["InvisiSpec-Future"]) + 0.02
    assert muontrap < 1.3
