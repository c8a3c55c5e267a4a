"""Figure 15 bench: 64-node end-to-end time and traffic for the four
systems on sparsified ResNet-50-like gradients."""

from conftest import save_and_show

from repro.figures import fig15 as figmod


def test_fig15(benchmark, results_dir):
    result = benchmark.pedantic(
        figmod.run, kwargs={"fast": True}, rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig15", figmod.render(result))

    ring = result.by_name("host-dense")
    fdense = result.by_name("Flare dense")
    sparcml = result.by_name("host-sparse")
    fsparse = result.by_name("Flare sparse")

    # Shape 1: in-network dense ~halves host-based dense time + traffic
    # ("more than 2x speedup ... 2x reduction in the network traffic").
    assert ring.time_ns / fdense.time_ns > 1.7
    assert 1.7 < ring.traffic_bytes_hops / fdense.traffic_bytes_hops < 2.3
    # Shape 2: host-based sparse is competitive with in-network dense.
    assert sparcml.time_ns < fdense.time_ns
    # Shape 3: Flare sparse wins outright — faster than SparCML by at
    # least the paper's 35%, and at least 43% faster than Flare dense.
    assert fsparse.time_ns < 0.65 * sparcml.time_ns
    assert fsparse.time_ns < 0.57 * fdense.time_ns
    # Shape 4: Flare sparse moves the least traffic by a wide margin.
    assert fsparse.traffic_bytes_hops < sparcml.traffic_bytes_hops / 2
    assert fsparse.traffic_bytes_hops < fdense.traffic_bytes_hops / 10
    # Densification sanity: root union well above per-host nnz.
    host_nnz, _leaf, root_nnz = result.union_counts
    assert root_nnz > 5 * host_nnz
