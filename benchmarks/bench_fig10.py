"""Figure 10 bench: modeled bandwidth/memory, four designs, S=C."""

from conftest import save_and_show

from repro.figures import fig10 as figmod


def test_fig10(benchmark, results_dir):
    result = benchmark.pedantic(figmod.run, rounds=3, iterations=1)
    save_and_show(results_dir, "fig10", figmod.render(result))

    bw = result.bandwidth
    sizes = result.sizes
    # Shape 1: tree is the only top performer at 64 KiB.
    i64 = sizes.index("64KiB")
    assert bw["tree"][i64] > bw["multi(4)"][i64] > bw["multi(2)"][i64] > bw["single"][i64]
    # Shape 2: multi(4) recovers by 128 KiB, multi(2) by 256, single by 512.
    assert bw["multi(4)"][sizes.index("128KiB")] > 3.5
    assert bw["multi(2)"][sizes.index("256KiB")] > 3.5
    assert bw["single"][sizes.index("512KiB")] > 4.0
    # Shape 3: at 512 KiB single edges ahead (no multi-buffer overhead).
    i512 = sizes.index("512KiB")
    assert bw["single"][i512] >= bw["multi(2)"][i512] >= bw["multi(4)"][i512]
    # Shape 4: memory ordering single < multi(2) < multi(4) < tree.
    mem = result.memory
    for i in range(len(sizes)):
        assert mem["single"][i] <= mem["multi(2)"][i] <= mem["multi(4)"][i] <= mem["tree"][i]
