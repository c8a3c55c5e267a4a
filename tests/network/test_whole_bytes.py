"""Whole bytes on the wire.

``send`` and ``send_burst`` store a whole float size (``4096.0``) as an
``int`` and reject any other (``tests/network/test_send_checks.py``), so
every byte counter is an exact ``int``: each ``Link.bytes_carried``, and
the global and per-flow ``TrafficStats``.  They must agree exactly: the
global bytes-hops equal the sum of the ``per_link`` table and the sum
of the links' counters, after FIFO windows and per-event hops mixed, and
after tenants contend under WFQ on a shared fabric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.simulator import Message, NetworkSimulator
from repro.network.topology import FatTreeTopology

FLOWS = ("f0", "f1", "f2")


def _conserved(net) -> int:
    """Assert the byte counters are ints and add up; return the total."""
    traffic = net.traffic
    links = net.topology.links()
    carried = [ln.bytes_carried for ln in links]
    for value in (traffic.bytes_hops, *traffic.per_link.values(), *carried):
        assert type(value) is int, value
    assert traffic.bytes_hops == sum(traffic.per_link.values()) == sum(carried)
    for flow, stats in net._flow_traffic.items():
        assert type(stats.bytes_hops) is int, flow
        assert stats.bytes_hops == sum(stats.per_link.values())
    return traffic.bytes_hops


def test_whole_float_size_is_stored_as_int():
    topo = FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    net = NetworkSimulator(topo, router="updown")
    one = Message("h0", "h5", 4096.0)
    burst = [Message("h1", "h6", 4096.0), Message("h2", "h3", np.float64(512.0))]
    net.send(one)
    net.send_burst(burst, at=5.0)
    assert [type(m.nbytes) for m in (one, *burst)] == [int, int, int]
    net.run()
    # h0 -> h5 and h1 -> h6 cross a spine (4 hops); h2 -> h3 stays in l0.
    assert _conserved(net) == 4096 * 4 + 4096 * 4 + 512 * 2


def _mixed_storm(net) -> None:
    """Two waves of plain sends wide enough for vector windows, and
    between them a wave of flow-tagged sends and bursts of varied sizes
    (which run per event)."""
    rng = np.random.default_rng(5)
    hosts = net.topology.hosts
    n = len(hosts)
    for h in hosts:
        net.on_deliver(h, lambda m, t: None)
        for flow in FLOWS:
            net.on_deliver(h, lambda m, t: None, flow=flow)
    for k in range(4 * n):
        src = k % n
        dst = (src + 1 + int(rng.integers(0, n - 1))) % n
        size = int(rng.integers(64, 8192))
        at = 3.0 * (k % 97)
        for wave in (0.0, 20000.0):
            net.send(Message(hosts[src], hosts[dst], 4096.0, ("plain", k)), at=at + wave)
        at += 10000.0
        if k % 4 == 1:
            net.send(Message(hosts[src], hosts[dst], size, ("flow", k),
                             flow=FLOWS[k % 3]), at=at)
        elif k % 4 == 3:
            net.send_burst([Message(hosts[src], hosts[(dst + b) % n], size + b,
                                    ("burst", k, b)) for b in range(3)], at=at)


@pytest.mark.parametrize("fast", [False, True], ids=["per-event", "windows"])
def test_mixed_fifo_storm_conserves_bytes(monkeypatch, fast):
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fast else "0")
    topo = FatTreeTopology(n_hosts=256, hosts_per_leaf=16, n_spines=8)
    net = NetworkSimulator(topo, router="updown")
    _mixed_storm(net)
    net.run()
    assert (net.windowed_hops > 0) == fast
    _conserved(net)


def test_wfq_fabric_conserves_bytes():
    """Four tenants, sparse ones included, contend under WFQ: every
    counter is an int and the tenants' traffic adds up to the fabric's."""
    from repro.comm import Fabric, wait_all

    fabric = Fabric(
        topology="fat-tree",
        topology_params={"n_hosts": 16, "hosts_per_leaf": 4, "n_spines": 2},
    )
    try:
        n = fabric.topology.n_hosts
        data = np.random.default_rng(0).integers(-9, 9, (n, 4096)).astype(np.int32)
        sparse = {"sparse": True, "density": 0.01}
        calls = [
            (data, {"algorithm": "ring", "sub_chunk_bytes": 4096}, 4.0),
            (65536, {"algorithm": "flare_sparse", "n_chunks": 8, **sparse}, 2.0),
            (65536, {"algorithm": "sparcml", "sub_chunk_bytes": 4096, **sparse}, 1.0),
            (65536, {"algorithm": "butterfly", "sub_chunk_bytes": 4096}, 1.0),
        ]
        futures = [
            fabric.communicator(name=f"tenant{i}", weight=w).iallreduce(x, **kw)
            for i, (x, kw, w) in enumerate(calls)
        ]
        results = wait_all(futures)
        assert fabric.net.arbitration == "wfq"
        total = _conserved(fabric.net)
        assert all(type(r.traffic_bytes_hops) is int for r in results)
        assert sum(r.traffic_bytes_hops for r in results) == total
    finally:
        fabric.shutdown()
