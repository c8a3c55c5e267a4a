"""Figure 7 bench: single-buffer model grid (bandwidth / input buffers /
working memory for S=1 vs S=C)."""

from conftest import save_and_show

from repro.figures import fig7 as figmod


def test_fig7(benchmark, results_dir):
    result = benchmark.pedantic(figmod.run, rounds=3, iterations=1)
    save_and_show(results_dir, "fig7", figmod.render(result))

    s1 = result.series["S=1"]
    sc = result.series["S=C"]
    # Shape 1: S=1 sustains peak bandwidth at every size.
    assert all(bw > 4.0 for bw in s1["bandwidth_tbps"])
    # Shape 2: S=C collapses at 8 KiB and recovers by 512 KiB.
    assert sc["bandwidth_tbps"][0] < 1.5
    assert sc["bandwidth_tbps"][-1] > 4.0
    # Shape 3: S=1 pays ~32 MiB of input buffers at 8 KiB; S=C far less.
    assert 25 < s1["input_buffer_mib"][0] < 40
    assert sc["input_buffer_mib"][0] < s1["input_buffer_mib"][0] / 4
    # Shape 4: working memory stays around half a MiB or below.
    assert all(m <= 0.6 for m in s1["working_memory_mib"] + sc["working_memory_mib"])
