"""Integration tests: hierarchical aggregation across PsPIN switches
(paper Fig. 1), run as ``flare_switch`` trees on a two-level fabric.

Leaves aggregate their racks, one spine aggregates the leaves and
multicasts the result down; every switch is priced by a one-chunk
PsPIN run at its fan-in, whose counters the result reports per switch.
"""

import numpy as np

from repro.comm import Fabric, wait_all

ELEMENTS = 256                      # one 1 KiB packet of 4-byte elements


def _fabric(n_leaves, hosts_per_leaf, **topology):
    return Fabric(
        topology="fat-tree",
        topology_params=dict(
            n_hosts=n_leaves * hosts_per_leaf, hosts_per_leaf=hosts_per_leaf,
            n_spines=1, **topology,
        ),
    )


def _data(n_hosts, n_blocks, dtype, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 7, size=(n_hosts, n_blocks * ELEMENTS)).astype(dtype)


def _allreduce(fabric, data, ring=False, **kwargs):
    """One flare_switch tree, alone or queued behind a ring that shifts
    its arrival timings."""
    futures = []
    if ring:
        futures.append(fabric.communicator(name="ring").iallreduce(
            "1MiB", algorithm="ring", n_hosts=data.shape[0]
        ))
    futures.append(fabric.communicator(name="tree", n_clusters=2).iallreduce(
        data, algorithm="flare_switch", **kwargs
    ))
    return wait_all(futures)[-1]


def test_two_level_exact_integer_sum():
    data = _data(12, 4, "int32", seed=1)
    r = _allreduce(_fabric(3, 4), data)
    np.testing.assert_array_equal(r.extra["output"], data.sum(axis=0, dtype=np.int32))
    counters = r.extra["switch_counters"]
    assert sorted(counters) == ["l0", "l1", "l2", "s0"]
    # Each leaf aggregates 4 hosts x 4 blocks; the root 3 leaves x 4.
    assert all(counters[leaf]["packets_in"] == 16 for leaf in ("l0", "l1", "l2"))
    assert counters["s0"]["packets_in"] == 12
    # A pricing run returns each block's aggregate to every child.
    assert all(c["packets_out"] == c["packets_in"] for c in counters.values())
    assert r.time_ns > 0


def test_two_level_float_and_tree():
    data = _data(8, 2, "float32", seed=2)
    r = _allreduce(_fabric(2, 4), data, aggregation="tree")
    np.testing.assert_array_equal(r.extra["output"], data.sum(axis=0))
    assert r.name == "Flare switch (tree)"


def test_two_level_reproducible_mode():
    """Reproducibility end to end: a run alone and a run contending
    with a ring (different arrival timings) give bitwise-identical
    fp32 outputs."""
    data = np.random.default_rng(3).standard_normal((8, 2 * ELEMENTS))
    data = data.astype(np.float32)
    alone = _allreduce(_fabric(2, 4), data, reproducible=True)
    contended = _allreduce(_fabric(2, 4), data, ring=True, reproducible=True)
    assert contended.time_ns != alone.time_ns
    assert np.array_equal(
        alone.extra["output"].view(np.uint32),
        contended.extra["output"].view(np.uint32),
    ), "tree aggregation must be bitwise stable across arrival timings"


def test_two_level_single_buffer_may_differ_bitwise():
    """The single-buffer handler aggregates in arrival order inside a
    PsPIN switch; on the fabric it only prices the switches, and the
    values agree with the tree handler's."""
    rng = np.random.default_rng(4)
    mags = rng.choice([1e-7, 1.0, 1e7], size=(8, ELEMENTS))
    data = (mags * rng.standard_normal((8, ELEMENTS))).astype(np.float32)
    outs = [
        _allreduce(_fabric(2, 4), data, ring=ring, aggregation=aggregation)
        .extra["output"]
        for ring, aggregation in ((False, "single"), (True, "tree"))
    ]
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-4)


def test_two_level_min_operator():
    data = _data(4, 2, "int32", seed=5)
    r = _allreduce(_fabric(2, 2), data, op="min")
    np.testing.assert_array_equal(r.extra["output"], data.min(axis=0))


def test_inter_switch_latency_extends_makespan():
    data = _data(8, 2, "int32", seed=6)
    near = _allreduce(_fabric(2, 4, link_latency_ns=0.0), data)
    far = _allreduce(_fabric(2, 4, link_latency_ns=50_000.0), data)
    # Up host -> leaf -> spine, down spine -> leaf -> host: four links.
    assert far.time_ns > near.time_ns + 4 * 40_000
