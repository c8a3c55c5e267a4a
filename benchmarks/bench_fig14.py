"""Figure 14 bench: simulated sparse allreduce vs density (bandwidth,
block memory, extra traffic)."""

from conftest import save_and_show

from repro.core.allreduce import SwitchInfeasibleError
from repro.figures import fig14 as figmod


def test_fig14(benchmark, results_dir):
    result = benchmark.pedantic(
        figmod.run, kwargs={"fast": True}, rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig14", figmod.render(result))

    hash_rs = result.results["hash"]
    array_rs = result.results["array"]
    # Shape 1: hash bandwidth and memory are density-independent.
    bws = [r.bandwidth_tbps for r in hash_rs]
    assert max(bws) - min(bws) < 0.15 * max(bws)
    mems = {r.block_memory_bytes for r in hash_rs}
    assert len(mems) == 1
    # Shape 2: array is faster than hash where it fits, never spills.
    for h, a in zip(hash_rs, array_rs):
        if not isinstance(a, SwitchInfeasibleError):
            assert a.bandwidth_tbps > h.bandwidth_tbps
            assert a.extra_traffic_pct == 0.0
    # Shape 3: array block memory grows as density falls, and the 1%
    # point does not fit the working-memory partition.
    feasible_mems = [r.block_memory_bytes for r in array_rs]
    assert feasible_mems[0] < feasible_mems[1] <= feasible_mems[2]
    assert isinstance(array_rs[-1], SwitchInfeasibleError)
    # Shape 4: hash spilling costs extra traffic, worst at high density
    # (paper: ~doubles traffic at 20%), mild at 1%.
    assert hash_rs[0].extra_traffic_pct > 15.0
    assert hash_rs[-1].extra_traffic_pct < hash_rs[0].extra_traffic_pct
