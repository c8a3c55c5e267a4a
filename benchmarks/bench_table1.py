"""Table 1 bench: capability matrix (qualitative; trivially fast)."""

from conftest import save_and_show

from repro.figures import table1 as figmod


def test_table1(benchmark, results_dir):
    matrix = benchmark.pedantic(figmod.run, rounds=3, iterations=1)
    save_and_show(results_dir, "table1", figmod.render(matrix))

    assert len(matrix) == 13
    assert figmod.verify()
    # Category split matches the paper's grouping.
    cats = {s.category for s in matrix}
    assert cats == {"fixed-function", "fpga", "programmable"}
    # No fixed-function system supports sparse data (F2).
    assert all(s.sparse == "no" for s in matrix if s.category == "fixed-function")
