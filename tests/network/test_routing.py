"""Tests for the routing-policy layer: determinism, seeded ECMP
reproducibility, congestion-aware adaptation, and contention behavior
under every policy."""

import pytest

from repro.network import (
    FatTreeTopology,
    Message,
    NetworkSimulator,
    available_routers,
    build_router,
    build_topology,
)


def _oversubscribed():
    # 8 hosts/leaf, 2 spines: oversubscription 4:1, two equal-cost
    # spine choices per cross-rack flow.
    return FatTreeTopology(n_hosts=32, hosts_per_leaf=8, n_spines=2)


def test_available_routers():
    assert available_routers() == ("adaptive", "ecmp", "shortest", "updown")
    with pytest.raises(ValueError, match="unknown routing policy"):
        build_router("valiant", _oversubscribed())


def test_router_rejects_foreign_topology():
    t1, t2 = _oversubscribed(), _oversubscribed()
    router = build_router("ecmp", t1)
    with pytest.raises(ValueError, match="different topology"):
        build_router(router, t2)


def test_shortest_is_first_canonical_path():
    t = _oversubscribed()
    r = build_router("shortest", t)
    assert r.route("h0", "h8") == t.paths("h0", "h8")[0]
    assert r.route("h0", "h0") == ["h0"]


@pytest.mark.parametrize("policy", ["shortest", "ecmp", "adaptive"])
def test_policies_only_pick_minimal_paths(policy):
    t = _oversubscribed()
    r = build_router(policy, t, seed=3)
    for dst in ("h1", "h9", "h17", "h31"):
        route = r.route("h0", dst)
        assert len(route) - 1 == t.hop_count("h0", dst)
        for a, b in zip(route, route[1:]):
            t.link(a, b)


# ----------------------------------------------------------------------
# Deterministic seeded ECMP (reproducibility satellite)
# ----------------------------------------------------------------------
def test_ecmp_same_seed_picks_identical_paths():
    pairs = [(f"h{i}", f"h{31 - i}") for i in range(16)]
    t1, t2 = _oversubscribed(), _oversubscribed()
    r1 = build_router("ecmp", t1, seed=42)
    r2 = build_router("ecmp", t2, seed=42)
    for src, dst in pairs:
        assert r1.route(src, dst) == r2.route(src, dst)


def test_ecmp_different_seeds_shuffle_some_paths():
    t = _oversubscribed()
    r1 = build_router("ecmp", t, seed=0)
    r2 = build_router("ecmp", t, seed=99)
    pairs = [(f"h{i}", f"h{31 - i}") for i in range(16)]
    assert any(r1.route(s, d) != r2.route(s, d) for s, d in pairs)


def test_ecmp_spreads_flows_over_spines():
    t = _oversubscribed()
    r = build_router("ecmp", t, seed=0)
    spines = {r.route(f"h{i}", f"h{31 - i}")[2] for i in range(16)}
    assert spines == {"s0", "s1"}


def test_ecmp_stable_across_processes_vs_builtin_hash():
    """The pick must derive from the stable hash, not builtin ``hash``
    (which is salted per process)."""
    from repro.utils.rngtools import ecmp_salt, stable_hash

    t = _oversubscribed()
    r = build_router("ecmp", t, seed=7)
    paths = t.paths("h0", "h8")
    expected = paths[stable_hash("h0", "h8", salt=ecmp_salt(7)) % len(paths)]
    assert r.route("h0", "h8") == expected


# ----------------------------------------------------------------------
# Congestion-aware adaptation (acceptance criterion)
# ----------------------------------------------------------------------
def _cross_rack_max_uplink(policy: str) -> float:
    topo = _oversubscribed()
    net = NetworkSimulator(topo, router=policy)
    for h in topo.hosts:
        net.on_deliver(h, lambda m, t: None)
    # Rack 0 -> rack 1 permutation: every flow has two spine choices.
    for i in range(8):
        net.send(Message(f"h{i}", f"h{i + 8}", nbytes=1e6))
    net.run()
    return max(
        v for (src, dst), v in net.traffic.per_link.items()
        if src.startswith("l") and dst.startswith("s")
    )


def test_adaptive_reduces_max_link_bytes_vs_deterministic():
    worst = _cross_rack_max_uplink("shortest")
    adaptive = _cross_rack_max_uplink("adaptive")
    # Deterministic routing piles all 8 flows on one uplink; the
    # congestion-aware policy splits them across both spines.
    assert worst == pytest.approx(8e6)
    assert adaptive <= worst / 2 + 1e-9


def test_adaptive_balances_regardless_of_hash_luck():
    for seed in range(4):
        topo = _oversubscribed()
        net = NetworkSimulator(topo, router="adaptive", routing_seed=seed)
        for h in topo.hosts:
            net.on_deliver(h, lambda m, t: None)
        for i in range(8):
            net.send(Message(f"h{i}", f"h{i + 8}", nbytes=1e6))
        net.run()
        uplinks = [
            v for (src, dst), v in net.traffic.per_link.items()
            if src == "l0" and dst.startswith("s")
        ]
        assert max(uplinks) == pytest.approx(4e6)


def test_adaptive_routing_sees_wfq_backlog():
    """The adaptive score counts a message from the moment it is routed
    onto a link, queued or not, so a lone flow under WFQ (a standalone
    call, on a one-tenant fabric) routes as on a FIFO simulator."""
    from repro.comm import Communicator

    params = {"n_hosts": 16, "hosts_per_leaf": 4, "n_spines": 2}
    comm = Communicator(topology="fat-tree", topology_params=params, routing="adaptive")
    wfq = comm.allreduce("1MiB", algorithm="recursive_doubling")
    fifo = NetworkSimulator(FatTreeTopology(**params), router="adaptive")
    done = []
    comm.plan(nbytes="1MiB", algorithm="recursive_doubling").issue(
        fifo, None, None, done.append
    )
    fifo.run()
    assert fifo.arbitration == "fifo"
    assert wfq.time_ns == done[0].time_ns
    assert round(wfq.time_ns, 2) == 579_716.8
    assert wfq.extra["max_link_bytes"] == done[0].extra["max_link_bytes"]


# ----------------------------------------------------------------------
# Link contention under every policy (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["shortest", "ecmp", "adaptive"])
def test_contention_serializes_shared_link_under_every_policy(policy):
    """Two messages sharing one link must serialize: the second
    arrives at least one full serialization later than the first."""
    # Single spine: all cross-rack traffic shares the l0->s0 uplink, so
    # the policy has no escape hatch.
    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=1)
    net = NetworkSimulator(topo, router=policy)
    arrivals = []
    net.on_deliver("h8", lambda m, t: arrivals.append(t))
    nbytes = 125000.0   # 10 us serialization at 100 Gbps
    net.send(Message("h0", "h8", nbytes), at=0.0)
    net.send(Message("h1", "h8", nbytes), at=0.0)
    net.run()
    assert len(arrivals) == 2
    assert arrivals[1] - arrivals[0] >= 10000.0 * 0.99


@pytest.mark.parametrize("policy", ["shortest", "ecmp", "adaptive"])
@pytest.mark.parametrize("family", ["dragonfly", "torus", "multi-rail"])
def test_contention_on_any_topology(policy, family):
    """Same-destination incast serializes on the terminal host links
    under every policy on every family.  The destination has one
    terminal link per rail (one on single-rail fabrics), so with more
    flows than rails some pair must share and the arrival spread is at
    least one serialization."""
    topo = build_topology(family)
    hosts = topo.hosts
    dst = hosts[-1]
    n_flows = 2 * len([p for p in topo.neighbors(dst)])
    net = NetworkSimulator(topo, router=policy)
    arrivals = []
    net.on_deliver(dst, lambda m, t: arrivals.append(t))
    nbytes = 125000.0   # 10 us serialization at 100 Gbps
    for i in range(n_flows):
        net.send(Message(hosts[i], dst, nbytes), at=0.0)
    net.run()
    assert len(arrivals) == n_flows
    assert max(arrivals) - min(arrivals) >= 10000.0 * 0.99


# ----------------------------------------------------------------------
# Up-down closed-form next hop
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "shape", [(32, 8, 2), (48, 4, 3)], ids=["32h-8pl-2s", "48h-4pl-3s"]
)
def test_updown_next_hop_matches_route(shape):
    """The closed-form hop is the second node of the full route for
    every (node, dst) pair, and spine -> spine fails identically."""
    n_hosts, per_leaf, n_spines = shape
    t = FatTreeTopology(n_hosts=n_hosts, hosts_per_leaf=per_leaf, n_spines=n_spines)
    r = build_router("updown", t, seed=5)
    assert r.closed_form
    nodes = t.hosts + t.leaves + t.spines
    for node in nodes:
        for dst in nodes:
            if node == dst:
                continue
            if node[0] == "s" and dst[0] == "s":
                with pytest.raises(ValueError) as route_err:
                    r.route(node, dst)
                with pytest.raises(ValueError) as hop_err:
                    r.next_hop(node, dst)
                assert str(hop_err.value) == str(route_err.value)
                continue
            assert r.next_hop(node, dst) == r.route(node, dst)[1], (node, dst)


def test_next_hop_memo_skipped_only_for_closed_form_router():
    t = _oversubscribed()
    assert NetworkSimulator(t, router="updown")._next_hop_cache is None
    for policy in ("shortest", "ecmp"):
        assert NetworkSimulator(t, router=policy)._next_hop_cache == {}
