"""Tests for links and the chunk-level network simulator."""

import pytest

from repro.network.links import Link
from repro.network.simulator import Message, NetworkSimulator
from repro.network.topology import FatTreeTopology


def test_link_serialization_and_latency():
    # 100 Gbps = 12.5 B/ns; 12500 B serializes in 1000 ns.
    link = Link("a", "b", gbps=100.0, latency_ns=250.0)
    arrival = link.transmit(12500, when=0.0)
    assert arrival == pytest.approx(1250.0)
    assert link.bytes_carried == 12500


def test_link_queues_fifo():
    link = Link("a", "b", gbps=100.0, latency_ns=0.0)
    a1 = link.transmit(12500, when=0.0)
    a2 = link.transmit(12500, when=0.0)   # queued behind the first
    assert a2 == pytest.approx(a1 + 1000.0)


def test_link_validates():
    with pytest.raises(ValueError):
        Link("a", "b", gbps=0)
    link = Link("a", "b")
    with pytest.raises(ValueError):
        link.transmit(-1, 0.0)


def test_message_delivery_and_traffic_accounting():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    net = NetworkSimulator(topo)
    delivered = []
    net.on_deliver("h5", lambda m, t: delivered.append((m.tag, t)))
    net.send(Message("h0", "h5", nbytes=1000.0, tag=("x",)), at=0.0)
    net.run()
    assert delivered and delivered[0][0] == ("x",)
    # h0 and h5 are in different racks: 4 hops -> 4x bytes counted.
    assert net.traffic.bytes_hops == pytest.approx(4000.0)


def test_intra_rack_traffic_counts_two_hops():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    net = NetworkSimulator(topo)
    net.on_deliver("h1", lambda m, t: None)
    net.send(Message("h0", "h1", nbytes=500.0), at=0.0)
    net.run()
    assert net.traffic.bytes_hops == pytest.approx(1000.0)


def test_per_link_breakdown_and_hot_links():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=1)
    net = NetworkSimulator(topo)
    net.on_deliver("h4", lambda m, t: None)
    net.on_deliver("h1", lambda m, t: None)
    net.send(Message("h0", "h4", nbytes=1000.0), at=0.0)   # 4 hops via l0-s0-l1
    net.send(Message("h0", "h1", nbytes=500.0), at=0.0)    # 2 hops inside l0
    net.run()
    stats = net.traffic
    assert stats.bytes_hops == pytest.approx(4 * 1000.0 + 2 * 500.0)
    # h0->l0 carried both messages; it is the hottest link.
    assert stats.per_link[("h0", "l0")] == pytest.approx(1500.0)
    assert stats.max_link_bytes == pytest.approx(1500.0)
    hot = stats.hot_links(2)
    assert hot[0] == ("h0->l0", 1500.0)
    assert len(hot) == 2 and hot[1][1] <= hot[0][1]
    extra = net.traffic_extra()
    assert extra["max_link_bytes"] == pytest.approx(1500.0)
    assert extra["routing"] == "ecmp"


def test_contention_serializes_shared_link():
    """Two hosts in one rack sending to the same remote host share the
    destination's leaf->host link."""
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=1)
    net = NetworkSimulator(topo)
    arrivals = []
    net.on_deliver("h8", lambda m, t: arrivals.append(t))
    nbytes = 125000.0   # 10 us serialization at 100 Gbps
    net.send(Message("h0", "h8", nbytes), at=0.0)
    net.send(Message("h1", "h8", nbytes), at=0.0)
    net.run()
    assert len(arrivals) == 2
    assert arrivals[1] - arrivals[0] >= 10000.0 * 0.99


# ----------------------------------------------------------------------
# Flows and weighted-fair arbitration (the multi-tenant substrate)
# ----------------------------------------------------------------------
def _two_flow_net(arbitration):
    topo = FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=1)
    return NetworkSimulator(topo, arbitration=arbitration)


def test_per_flow_traffic_accounting():
    net = _two_flow_net("fifo")
    net.on_deliver("h4", lambda m, t: None)
    net.send(Message("h0", "h4", 1000.0, flow="A"), at=0.0)
    net.send(Message("h1", "h4", 500.0, flow="B"), at=0.0)
    net.send(Message("h2", "h4", 100.0), at=0.0)      # untagged
    net.run()
    # 4 hops each: host -> leaf -> spine -> leaf -> host.
    assert net.flow_stats("A").bytes_hops == pytest.approx(4 * 1000.0)
    assert net.flow_stats("B").bytes_hops == pytest.approx(4 * 500.0)
    # Global stats include everything, untagged included.
    assert net.traffic.bytes_hops == pytest.approx(4 * 1600.0)
    assert net.traffic_extra(flow="A")["max_link_bytes"] == pytest.approx(1000.0)


def test_flow_callbacks_demultiplex_per_node():
    net = _two_flow_net("fifo")
    got = {"A": [], "B": [], None: []}
    net.on_deliver("h4", lambda m, t: got["A"].append(m.nbytes), flow="A")
    net.on_deliver("h4", lambda m, t: got["B"].append(m.nbytes), flow="B")
    net.on_deliver("h4", lambda m, t: got[None].append(m.nbytes))
    net.send(Message("h0", "h4", 1.0, flow="A"), at=0.0)
    net.send(Message("h0", "h4", 2.0, flow="B"), at=0.0)
    net.send(Message("h0", "h4", 3.0, flow="C"), at=0.0)   # falls back
    net.send(Message("h0", "h4", 4.0), at=0.0)
    net.run()
    assert got == {"A": [1.0], "B": [2.0], None: [3.0, 4.0]}
    net.remove_flow("A")
    net.send(Message("h0", "h4", 5.0, flow="A"), at=net.now)
    net.run()
    assert got[None] == [3.0, 4.0, 5.0]    # A now falls back too


def test_remove_flow_drops_only_that_flows_callbacks():
    net = _two_flow_net("fifo")
    for node in ("h4", "h5"):
        net.on_deliver(node, lambda m, t: None)
        net.on_deliver(node, lambda m, t: None, flow="A")
        net.on_deliver(node, lambda m, t: None, flow="A")   # re-registered
        net.on_deliver(node, lambda m, t: None, flow="B")
    net.remove_flow("A")
    net.remove_flow("A")                    # idempotent
    net.remove_flow("never-registered")
    assert set(net._deliver_cb) == {
        ("h4", None), ("h5", None), ("h4", "B"), ("h5", "B"),
    }
    net.remove_flow("B")
    assert set(net._deliver_cb) == {("h4", None), ("h5", None)}


def test_wfq_single_flow_matches_fifo_exactly():
    """A lone flow must see bit-identical timing under both arbiters —
    the parity guarantee the fabric refactor rests on."""
    results = {}
    for mode in ("fifo", "wfq"):
        net = _two_flow_net(mode)
        arrivals = []
        net.on_deliver("h4", lambda m, t: arrivals.append((m.tag, t)))
        for i in range(6):
            net.send(Message("h0", "h4", 12500.0, tag=(i,), flow="F"), at=0.0)
        net.run()
        results[mode] = arrivals
    assert results["wfq"] == results["fifo"]


def test_wfq_weights_interleave_proportionally():
    """Weight 3 vs 1 on one saturated link: the heavy flow's last chunk
    lands well before the light flow's."""
    finish = {}
    for wa, wb in ((1.0, 1.0), (3.0, 1.0)):
        net = _two_flow_net("wfq")
        net.set_flow_weight("A", wa)
        net.set_flow_weight("B", wb)
        last = {}
        net.on_deliver("h4", lambda m, t, last=last: last.__setitem__(m.flow, t))
        for i in range(8):
            net.send(Message("h0", "h4", 12500.0, tag=("a", i), flow="A"), at=0.0)
            net.send(Message("h1", "h4", 12500.0, tag=("b", i), flow="B"), at=0.0)
        net.run()
        finish[(wa, wb)] = (last["A"], last["B"])
    a_eq, b_eq = finish[(1.0, 1.0)]
    a_w, b_w = finish[(3.0, 1.0)]
    # Equal weights: both finish about together (fair interleave).
    assert a_eq == pytest.approx(b_eq, rel=0.2)
    # Weighted: A's completion moves decisively ahead of B's.
    assert a_w <= 0.8 * b_w
    assert a_w < a_eq


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_flow_weight_must_be_finite(weight):
    # nan <= 0 is False: a plain sign check would let nan into WFQ tags.
    net = _two_flow_net("wfq")
    with pytest.raises(ValueError, match="positive and finite"):
        net.set_flow_weight("A", weight)
    assert "A" not in net._flow_weight


def test_wfq_rejects_bad_inputs():
    net = _two_flow_net("wfq")
    with pytest.raises(ValueError):
        net.set_flow_weight("A", 0.0)
    with pytest.raises(ValueError):
        NetworkSimulator(
            FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=1),
            arbitration="strict",
        )


def test_shared_engine_is_reused():
    from repro.pspin.engine import Simulator

    clock = Simulator()
    net = NetworkSimulator(
        FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=1), sim=clock
    )
    assert net.sim is clock
    net.on_deliver("h4", lambda m, t: None)
    net.send(Message("h0", "h4", 1000.0), at=0.0)
    net.run()
    assert clock.now == net.now > 0
