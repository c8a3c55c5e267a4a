"""Smoke tests for the figure runners (fast modes) — the full shape
assertions live in benchmarks/; these ensure run()/render() stay
executable and structurally sound, and pin every fast table as golden
text."""

import importlib
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def fig15_fast():
    """One fast Fig. 15 run (the slowest fast figure) shared by its
    smoke and golden tests."""
    from repro.figures import fig15

    return fig15.run(fast=True)


@pytest.mark.parametrize("name", ["fig7", "fig10", "fig13", "table1"])
def test_model_figures_run_and_render(name):
    mod = importlib.import_module(f"repro.figures.{name}")
    result = mod.run(fast=True)
    text = mod.render(result)
    assert "Figure" in text or "Table" in text
    assert len(text.splitlines()) > 3


def test_fig7_structure():
    from repro.figures import fig7

    r = fig7.run()
    assert set(r.series) == {"S=1", "S=C"}
    for s in r.series.values():
        assert len(s["bandwidth_tbps"]) == len(r.sizes) == 3


def test_fig10_structure():
    from repro.figures import fig10

    r = fig10.run()
    assert set(r.bandwidth) == {"single", "multi(2)", "multi(4)", "tree"}
    assert set(r.memory) == set(r.bandwidth)


def test_fig11_fast_smoke():
    from repro.figures import fig11

    r = fig11.run(fast=True)
    assert r.sizes == ["1KiB", "4KiB", "64KiB"]
    assert set(r.bandwidth) == {"single", "multi(4)", "tree"}
    assert r.elements_per_s["SwitchML"][-1] == 0.0   # float unsupported
    text = fig11.render(r)
    assert "SHARP" in text and "SwitchML" in text


def test_fig13_structure():
    from repro.figures import fig13

    r = fig13.run()
    assert set(r.bandwidth) == {"hash", "array"}
    for per_algo in r.bandwidth.values():
        assert set(per_algo) == {"single", "multi(2)", "multi(4)", "tree"}


def test_fig14_fast_smoke():
    from repro.core.allreduce import SwitchInfeasibleError
    from repro.figures import fig14

    r = fig14.run(fast=True)
    assert r.densities == [0.20, 0.10, 0.01]
    assert isinstance(r.results["array"][-1], SwitchInfeasibleError)
    assert "does not fit" in fig14.render(r)


def test_fig14_fast_matches_golden_text():
    """The whole fast-mode table, the array 1% "does not fit memory"
    row and its block memory included.  Regenerate only for an intended
    change to simulated results::

        PYTHONPATH=src python -c "from repro.figures import fig14; \\
        print(fig14.render(fig14.run(fast=True)))" > tests/figures/fig14_golden.txt
    """
    from repro.figures import fig14

    golden = Path(__file__).with_name("fig14_golden.txt").read_text()
    assert fig14.render(fig14.run(fast=True)) + "\n" == golden


@pytest.mark.parametrize(
    "name", ["fig7", "fig10", "fig11", "fig13", "fig15", "table1"]
)
def test_fast_table_matches_golden_text(name, request):
    """Every other fast-mode table, rendered whole.  Regenerate one only
    for an intended change to its numbers::

        PYTHONPATH=src python -c "from repro.figures import fig7 as m; \\
        print(m.render(m.run(fast=True)))" > tests/figures/fig7_golden.txt
    """
    mod = importlib.import_module(f"repro.figures.{name}")
    result = (
        request.getfixturevalue("fig15_fast") if name == "fig15"
        else mod.run(fast=True)
    )
    golden = Path(__file__).with_name(f"{name}_golden.txt").read_text()
    assert mod.render(result) + "\n" == golden


def test_fig15_fast_smoke(fig15_fast):
    from repro.figures import fig15

    r = fig15_fast
    assert len(r.results) == 4
    names = [x.name for x in r.results]
    assert names[0].startswith("host-dense")
    assert r.by_name("Flare sparse").time_ns < r.by_name("host-dense").time_ns
    with pytest.raises(KeyError):
        r.by_name("nonexistent")
    assert "Figure 15" in fig15.render(r)


def test_fig15_sparse_tree_keeps_64_chunks(fig15_fast):
    """Fig. 15's measured level streams are far above 64 packets, so the
    sparse tree's default chunk count stays at its cap."""
    assert fig15_fast.by_name("Flare sparse").extra["n_chunks"] == 64


def test_table1_verify():
    from repro.figures import table1

    assert table1.verify()
