"""Caches derived from the topology follow its mutations.

Two caches derive state from the topology: the simulator's next-hop
memo (``_next_hop_cache``) and the FIFO hop windows' route memo and
link-rate table (``repro.network.windows``).  Both invalidate through
``Topology.add_change_listener`` — ``fail_link`` / ``repair_link`` /
``fail_switch`` / ``repair_switch`` / ``set_link_rate`` notify every
registered simulator — so a mutation that bypasses the simulator
cannot leave a stale route or rate behind.  The window tests run a
storm, mutate the topology, run a second storm, and compare every
arrival and link total against the per-event loop
(``REPRO_FASTPATH=0``).
"""

import pytest

from repro.network import FatTreeTopology, Message, NetworkSimulator


def _uplinks_used(net, leaf="l0"):
    return {
        dst for (src, dst), v in net.traffic.per_link.items()
        if src == leaf and dst.startswith("s") and v > 0
    }


# ----------------------------------------------------------------------
# Sequential engine: listener-driven memo invalidation
# ----------------------------------------------------------------------
def test_next_hop_memo_invalidated_by_direct_topology_failure():
    """A `topology.fail_link` call (not routed through the simulator)
    must still flush the next-hop memo: the follow-up send may not put
    a single byte on the failed uplink."""
    topo = FatTreeTopology(n_hosts=32, hosts_per_leaf=8, n_spines=2)
    net = NetworkSimulator(topo, router="ecmp")
    net.on_deliver("h8", lambda m, t: None)
    net.send(Message("h0", "h8", 4096.0))
    net.run()  # memoizes h0 -> h8 through some l0 uplink
    (used,) = _uplinks_used(net)
    before = dict(net.traffic.per_link)

    topo.fail_link("l0", used)  # mutation bypasses the simulator
    net.send(Message("h0", "h8", 4096.0))
    net.run()
    delta = {
        k: v - before.get(k, 0.0)
        for k, v in net.traffic.per_link.items()
        if v - before.get(k, 0.0) > 0
    }
    assert ("l0", used) not in delta, "stale next-hop memo used a failed link"
    assert any(src == "l0" for src, _ in delta), "message never left the rack"


def test_next_hop_memo_recovers_after_repair():
    topo = FatTreeTopology(n_hosts=32, hosts_per_leaf=8, n_spines=2)
    net = NetworkSimulator(topo, router="shortest")
    net.on_deliver("h8", lambda m, t: None)
    net.send(Message("h0", "h8", 4096.0))
    net.run()
    (used,) = _uplinks_used(net)
    topo.fail_link("l0", used)
    topo.repair_link("l0", used)
    before = dict(net.traffic.per_link)
    net.send(Message("h0", "h8", 4096.0))
    net.run()
    # shortest is deterministic: after repair it's the original path.
    assert net.traffic.per_link[("l0", used)] > before[("l0", used)]


# ----------------------------------------------------------------------
# FIFO hop windows: route memo and rate table
# ----------------------------------------------------------------------
def _two_phase(monkeypatch, fast, mutate):
    """Storm, topology mutation, second storm: the makespan, the sorted
    arrival log, ``per_link`` and how many hops ran in windows."""
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fast else "0")
    topo = FatTreeTopology(n_hosts=256, hosts_per_leaf=16, n_spines=8)
    net = NetworkSimulator(topo, router="ecmp")
    sim = net.sim
    arrivals = []
    for h in topo.hosts:
        net.on_deliver(h, lambda m, t, h=h: arrivals.append((h, m.src, m.tag, t)))
    hosts = topo.hosts
    n = len(hosts)

    def storm(t0):
        for i, src in enumerate(hosts):
            for j, off in enumerate((37, 101, 149)):
                net.send(Message(src, hosts[(i + off) % n], 4096.0, (i, j)),
                         at=t0 + 3.0 * ((2 * i + j) % 97))

    storm(0.0)
    sim.run()               # phase 1: fills the route memo and rate table
    mutate(topo)
    storm(sim.now)
    sim.run()
    return sim.now, sorted(arrivals), dict(net.traffic.per_link), net.windowed_hops


def _check(monkeypatch, mutate):
    ref = _two_phase(monkeypatch, False, mutate)
    got = _two_phase(monkeypatch, True, mutate)
    assert ref[3] == 0 and got[3] > 0        # windows ran both phases' hops
    assert got[:3] == ref[:3]
    return got


def test_link_failure_invalidates_window_routes(monkeypatch):
    got = _check(monkeypatch, lambda topo: topo.fail_link("l0", "s0"))
    assert got[2][("l0", "s0")] == _two_phase(
        monkeypatch, True, lambda topo: None
    )[2][("l0", "s0")] / 2       # only phase 1 crossed the failed uplink


def test_switch_failure_invalidates_window_routes(monkeypatch):
    _check(monkeypatch, lambda topo: topo.fail_switch("s1"))


def test_repair_restores_window_routes(monkeypatch):
    def mutate(topo):
        topo.fail_link("l0", "s0")
        topo.repair_link("l0", "s0")

    assert _check(monkeypatch, mutate) == _two_phase(
        monkeypatch, True, lambda topo: None
    )


def test_set_link_rate_reaches_window_rate_table(monkeypatch):
    """Re-rating links between the phases must reach the windows' rate
    table: later serializations shift exactly as in the per-event loop."""
    def mutate(topo):
        topo.set_link_rate("l0", "s0", 10.0)   # 100 -> 10 Gbps
        topo.set_link_rate("l1", "s1", 25.0)

    slow = _check(monkeypatch, mutate)
    fast = _two_phase(monkeypatch, True, lambda topo: None)
    assert slow[0] > fast[0], "rate degradation never took effect"


def test_set_link_rate_rejects_unknown_link():
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=2)
    with pytest.raises(ValueError, match="no link"):
        topo.set_link_rate("l0", "s9", 10.0)
