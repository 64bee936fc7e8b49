"""Figure 3: SPEC CPU2006 normalised execution time for all five schemes."""

from conftest import run_once

from repro.experiments.figures import figure3


def test_figure3_spec2006(benchmark, options):
    result = run_once(benchmark, figure3, **options)
    print("\n" + result.to_markdown())
    # The paper's headline: MuonTrap costs a few percent on SPEC and is
    # cheaper than both InvisiSpec variants.
    assert result.geomeans["MuonTrap"] < result.geomeans["InvisiSpec-Future"]
    assert result.geomeans["MuonTrap"] < 1.35
