"""The figure reproductions: what they hand to the public facade."""

import pytest

from repro import api
from repro.experiments import figures
from repro.harness.store import ResultStore
from repro.sim.runner import unprotected_config

#: Each matrix figure with the core count of its baseline machine.
MATRIX_FIGURES = [(figures.figure3, 1), (figures.figure4, 4),
                  (figures.figure5, 4), (figures.figure6, 4),
                  (figures.figure8, 4), (figures.figure9, 1)]


class _NoSeries:
    """Stands in for a comparison outcome without simulating anything."""

    def normalised(self):
        return {}


@pytest.fixture
def compare_calls(monkeypatch):
    calls = []

    def fake_compare(schemes, suite, **kwargs):
        calls.append((list(schemes), suite, kwargs))
        return _NoSeries()
    monkeypatch.setattr(api, "compare", fake_compare)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return calls


@pytest.mark.parametrize("figure, cores", MATRIX_FIGURES,
                         ids=[figure.__name__ for figure, _ in MATRIX_FIGURES])
def test_matrix_figures_forward_their_options(figure, cores, compare_calls,
                                              tmp_path):
    store = ResultStore(tmp_path)
    result = figure(["swaptions"], instructions=700, seed=9, store=store)
    [(_, suite, kwargs)] = compare_calls
    assert suite == ["swaptions"]
    assert kwargs.pop("baseline") == unprotected_config(num_cores=cores)
    assert kwargs == {"instructions": 700, "seed": 9, "store": store,
                      "jobs": 1}
    assert result.benchmarks == ["swaptions"]


def test_figures_take_the_worker_count_from_repro_jobs(compare_calls,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    figures.figure4(["swaptions"])
    figures.figure4(["swaptions"], jobs=2)
    assert [kwargs["jobs"] for _, _, kwargs in compare_calls] == [3, 2]


def test_figure_sweeps_keep_their_own_axes(compare_calls):
    figures.figure5(["swaptions"], sizes=[512, 1024])
    figures.figure6(["swaptions"], associativities=[2])
    assert [schemes for schemes, _, _ in compare_calls] \
        == [["512B", "1024B"], ["2-way"]]


def test_figure7_forwards_to_simulate(monkeypatch, tmp_path):
    calls = []

    class Outcome:
        stats = {"system.memory_system.committed_stores": 4,
                 "system.memory_system.store_filter_broadcasts": 1}

    def fake_simulate(benchmark, machine, **kwargs):
        calls.append((benchmark, machine, kwargs))
        return Outcome()
    monkeypatch.setattr(api, "simulate", fake_simulate)
    store = ResultStore(tmp_path)
    result = figures.figure7(["gcc", "lbm"], instructions=700, seed=9,
                             store=store, jobs=4)
    assert [(benchmark, machine) for benchmark, machine, _ in calls] \
        == [("gcc", "muontrap"), ("lbm", "muontrap")]
    assert calls[0][2] == {"warmup_fraction": 0.0, "collect_stats": True,
                           "instructions": 700, "seed": 9, "store": store}
    assert result.series["write fcache-invalidate rate"] \
        == {"gcc": 0.25, "lbm": 0.25}
