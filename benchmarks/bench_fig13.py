"""Figure 13 bench: modeled sparse bandwidth, hash vs array storage."""

from conftest import save_and_show

from repro.figures import fig13 as figmod


def test_fig13(benchmark, results_dir):
    result = benchmark.pedantic(figmod.run, rounds=3, iterations=1)
    save_and_show(results_dir, "fig13", figmod.render(result))

    hash_bw = result.bandwidth["hash"]
    array_bw = result.bandwidth["array"]
    # Shape 1: array storage outruns hash storage design-for-design.
    for algo in hash_bw:
        for h, a in zip(hash_bw[algo], array_bw[algo]):
            assert a > h
    # Shape 2: sparse stays well below the dense ~4.1 Tbps ceiling.
    for storage in ("hash", "array"):
        for series in result.bandwidth[storage].values():
            assert max(series) < 2.6
    # Shape 3: tree is flat and best at the smallest size (as in the
    # dense Fig. 10).
    assert hash_bw["tree"][0] > hash_bw["multi(4)"][0] > hash_bw["single"][0]
