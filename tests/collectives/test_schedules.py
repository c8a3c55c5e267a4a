"""Tests for the network-simulated collective schedules (Fig. 15
machinery) at reduced scale."""

import math

import pytest

from repro.collectives.sparcml import sparcml_round_bytes
from repro.comm import Communicator
from repro.network.topology import FatTreeTopology
from repro.network.trees import embed_reduction_tree
from repro.utils.units import MIB


def _topo(n_hosts=16, hosts_per_leaf=4, n_spines=2):
    return FatTreeTopology(n_hosts=n_hosts, hosts_per_leaf=hosts_per_leaf,
                           n_spines=n_spines)


def _run(algorithm, topo, nbytes, **params):
    """One standalone run of ``algorithm`` on ``topo``."""
    return Communicator(topology=topo).allreduce(nbytes, algorithm=algorithm, **params)


def _sparse(algorithm, topo, total_elements, **params):
    return _run(algorithm, topo, total_elements * 4, sparse=True, **params)


def test_ring_time_close_to_bandwidth_bound():
    """Pipelined ring ~ 2 Z (P-1)/P / link_rate."""
    Z = 16 * MIB
    r = _run("ring", _topo(), Z)
    bound_ns = 2 * Z * 15 / 16 / 12.5
    assert bound_ns <= r.time_ns <= 1.35 * bound_ns


def test_ring_traffic_scales_with_hops():
    Z = 4 * MIB
    r = _run("ring", _topo(), Z)
    # 2(P-1) steps x P segments; intra-rack hops = 2, one cross-rack
    # edge per rack boundary = 4 hops.
    seg = Z / 16
    steps = 2 * 15
    expected = seg * steps * (12 * 2 + 4 * 4)
    assert r.traffic_bytes_hops == pytest.approx(expected, rel=0.01)


def test_flare_dense_halves_ring_traffic_and_time():
    Z = 16 * MIB
    ring = _run("ring", _topo(), Z)
    flare = _run("flare_dense", _topo(), Z, chunk_bytes=256 * 1024)
    assert flare.time_ns < 0.7 * ring.time_ns
    assert flare.traffic_bytes_hops < 0.7 * ring.traffic_bytes_hops


def test_flare_dense_traffic_exact():
    """Every host sends Z up (1 hop) + leaf->root (1) + root->leaf (1)
    + leaf->host (1): Z*(hosts*2 + leaves*2) bytes-hops."""
    Z = 4 * MIB
    t = _topo()
    r = _run("flare_dense", t, Z, chunk_bytes=MIB)
    expected = Z * (16 + 4 + 4 + 16)
    assert r.traffic_bytes_hops == pytest.approx(expected, rel=0.01)


def test_sparcml_round_sizes_shrink_then_grow():
    sizes = sparcml_round_bytes(16, total_elements=1e6, bucket_span=512,
                                nnz_per_bucket=1.0)
    k = len(sizes) // 2
    assert len(sizes) == 2 * int(math.log2(16))
    # Allgather sizes double each round.
    ag = sizes[k:]
    for a, b in zip(ag, ag[1:]):
        assert b == pytest.approx(2 * a, rel=0.01)


def test_sparcml_dense_switch_caps_sizes():
    no_switch = sparcml_round_bytes(16, 1e6, 512, 400.0, dense_switch=False)
    switched = sparcml_round_bytes(16, 1e6, 512, 400.0, dense_switch=True)
    assert sum(switched) <= sum(no_switch)
    # With 400/512 survivors the sparse encoding (8 B) always exceeds
    # dense (4 B), so every round must be dense-capped.
    assert all(s <= n for s, n in zip(switched, no_switch))


def test_sparcml_completes_and_reports():
    r = _sparse("sparcml", _topo(), 2**20)
    assert r.time_ns > 0
    assert len(r.extra["round_bytes"]) == 8
    assert r.traffic_bytes_hops > 0


def test_sparcml_needs_power_of_two():
    with pytest.raises(ValueError):
        sparcml_round_bytes(12, 1e6, 512, 1.0)


def test_flare_sparse_beats_sparcml_and_dense():
    """The headline Fig. 15 ordering at small scale."""
    t = _topo
    elements = float(2**22)   # 16 MiB dense
    dense = _run("flare_dense", t(), elements * 4, chunk_bytes=256 * 1024)
    sparcml = _sparse("sparcml", t(), elements)
    sparse = _sparse("flare_sparse", t(), elements)
    assert sparse.time_ns < sparcml.time_ns
    assert sparse.time_ns < dense.time_ns
    assert sparse.traffic_bytes_hops < sparcml.traffic_bytes_hops
    assert sparse.traffic_bytes_hops < dense.traffic_bytes_hops


def test_flare_sparse_level_bytes_densify():
    r = _sparse("flare_sparse", _topo(), float(2**22))
    assert r.extra["host_bytes"] < r.extra["leaf_bytes"] < r.extra["root_bytes"]


def test_embed_reduction_tree():
    t = _topo()
    tree = embed_reduction_tree(t, root_spine=1)
    assert tree.root == "s1"
    assert len(tree.leaves) == 4
    assert tree.fan_ins == [4, 4]
    assert len(tree.all_hosts()) == 16
    with pytest.raises(ValueError):
        embed_reduction_tree(t, root_spine=9)


@pytest.mark.xfail(strict=True, reason="SparCML advances a rank when any "
                   "round completes, not only its next one")
def test_sparcml_sends_round_only_after_every_earlier_round():
    """No rank may send round r+1 before it completed rounds 0..r: the
    next round's content derives from the merged data of all of them."""
    from repro.collectives.sparcml import issue_sparcml_allreduce
    from repro.network.simulator import NetworkSimulator

    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    net = NetworkSimulator(topo)
    elements = float(2**24)
    sizes = sparcml_round_bytes(64, elements, 512, 1.0)
    landed: dict = {}
    completed = {h: set() for h in topo.hosts}
    early = []

    send_burst, on_deliver = net.send_burst, net.on_deliver

    def burst(msgs, at=0.0):
        for m in msgs:
            if not completed[m.src].issuperset(range(m.tag[1])):
                early.append((m.src, m.tag[1]))
        send_burst(msgs, at)

    def register(node, callback, flow=None):
        def deliver(msg, now):
            _kind, rnd, _sub, n_sub = msg.tag
            landed[msg.dst, rnd] = landed.get((msg.dst, rnd), 0) + 1
            if landed[msg.dst, rnd] == n_sub:
                completed[msg.dst].add(rnd)
            callback(msg, now)

        on_deliver(node, deliver, flow)

    net.send_burst, net.on_deliver = burst, register
    done = []
    issue_sparcml_allreduce(net, elements, sizes, on_complete=done.append)
    net.run()
    assert done
    assert early == []
