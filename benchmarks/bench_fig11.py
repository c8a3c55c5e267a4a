"""Figure 11 bench: simulated switch bandwidth vs size and per-dtype
element rates, against the SwitchML / SHARP reference lines."""

from conftest import save_and_show

from repro.comm import Communicator
from repro.figures import fig11 as figmod


def test_fig11(benchmark, results_dir):
    result = benchmark.pedantic(
        figmod.run, kwargs={"fast": True}, rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig11", figmod.render(result))

    bw = result.bandwidth
    # Shape 1: at the smallest size tree beats single and multi
    # (contention + cold start hit the shared-buffer designs).
    assert bw["tree"][0] > bw["multi(4)"][0] > bw["single"][0]
    # Shape 2: at the largest size every design clears SwitchML's line
    # and single buffer clears SHARP's.
    assert all(series[-1] > result.switchml_tbps for series in bw.values())
    assert bw["single"][-1] > result.sharp_tbps
    # Shape 2b (needs P=64): tree alone beats SwitchML by 4 KiB.  One
    # paper-scale point (64 children, 4 clusters) is enough to check it.
    tree_4k = Communicator(n_hosts=64, n_clusters=4).allreduce(
        4096, algorithm="flare_switch", aggregation="tree", dtype="int32",
        seed=0, cold_start=True,
    ).raw
    assert tree_4k.bandwidth_tbps > result.switchml_tbps

    # Right panel shapes: SIMD scaling ~2x for int16, ~4x for int8;
    # SwitchML flat across integer widths and absent for float.
    flare = dict(zip(result.dtypes, result.elements_per_s["Flare"]))
    sw = dict(zip(result.dtypes, result.elements_per_s["SwitchML"]))
    assert 1.7 < flare["int16"] / flare["int32"] < 2.3
    assert 3.3 < flare["int8"] / flare["int32"] < 4.7
    assert sw["int32"] == sw["int16"] == sw["int8"] > 0
    assert sw["float32"] == 0.0
    assert flare["float32"] > 0
    # Flare beats SwitchML on every supported dtype at 1 MiB.
    for dt in ("int32", "int16", "int8"):
        assert flare[dt] > sw[dt]
