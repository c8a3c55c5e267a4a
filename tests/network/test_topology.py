"""Tests for the fat-tree topology and its structural routes.

``route`` and ``hop_count`` are the base :class:`Topology` BFS methods;
simulations route through a :mod:`repro.network.routing` policy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.topology import FatTreeTopology


def _topo(**kw):
    return FatTreeTopology(**kw)


def test_default_dimensions_fig15():
    t = _topo()
    assert t.n_hosts == 64
    assert t.n_leaves == 8
    assert t.n_spines == 4
    assert len(t.hosts) == 64
    # Full bipartite leaf-spine wiring, duplex.
    assert len(t.links()) == 2 * (64 + 8 * 4)


def test_leaf_of_and_hosts_under():
    t = _topo()
    assert t.leaf_of("h0") == "l0"
    assert t.leaf_of("h63") == "l7"
    assert t.hosts_under("l1") == [f"h{i}" for i in range(8, 16)]
    with pytest.raises(ValueError):
        t.leaf_of("h64")


def test_intra_rack_route_is_two_hops():
    t = _topo()
    assert t.route("h0", "h1") == ["h0", "l0", "h1"]
    assert t.hop_count("h0", "h1") == 2


def test_cross_rack_route_is_four_hops():
    t = _topo()
    route = t.route("h0", "h8")
    assert len(route) == 5
    assert route[0] == "h0" and route[1] == "l0"
    assert route[2].startswith("s")
    assert route[3] == "l1" and route[4] == "h8"


def test_switch_endpoints_route():
    t = _topo()
    assert t.route("h0", "l0") == ["h0", "l0"]
    assert t.route("h0", "s2") == ["h0", "l0", "s2"]
    assert t.route("l0", "s1") == ["l0", "s1"]
    assert t.route("s1", "l3") == ["s1", "l3"]
    assert t.route("s1", "h9") == ["s1", "l1", "h9"]
    route = t.route("l2", "h9")
    assert route[0] == "l2" and route[1].startswith("s")
    assert route[2:] == ["l1", "h9"]
    assert t.route("h5", "h5") == ["h5"]


def test_route_links_exist():
    t = _topo()
    for dst in ("h1", "h8", "l3", "s0"):
        links = t.path_links("h0", dst)
        assert all(link.gbps == 100.0 for link in links)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        FatTreeTopology(n_hosts=10, hosts_per_leaf=4)
    with pytest.raises(ValueError):
        FatTreeTopology(n_spines=0)


@pytest.mark.parametrize(
    "kw",
    [
        {"n_hosts": -8},
        {"n_hosts": 0, "hosts_per_leaf": 0},
        {"n_hosts": 8, "hosts_per_leaf": -8},
        {"n_hosts": 8, "hosts_per_leaf": 0},
    ],
)
def test_non_positive_host_counts_rejected(kw):
    """Negative counts used to build a fabric with negative hosts, and
    zero ones raised ``ZeroDivisionError``."""
    with pytest.raises(ValueError, match="n_hosts >= 1 and hosts_per_leaf >= 1"):
        FatTreeTopology(**kw)


def test_overwired_spine_count_rejected():
    """n_spines beyond the leaf uplink capacity used to silently build
    an over-wired bipartite graph; now it is a validation error."""
    with pytest.raises(ValueError, match="uplink capacity"):
        FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=8)
    with pytest.raises(ValueError, match="uplink capacity"):
        FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4,
                        leaf_radix=10)
    # Radix with room for the uplinks is fine.
    FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4, leaf_radix=12)
    with pytest.raises(ValueError, match="no uplink ports"):
        FatTreeTopology(n_hosts=64, hosts_per_leaf=8, leaf_radix=8)


def test_bisection_bandwidth_and_oversubscription():
    t = FatTreeTopology()                      # 8 leaves x 4 spines
    assert t.bisection_bandwidth() == 4 * 4 * 100.0
    assert t.oversubscription_ratio == pytest.approx(2.0)
    full = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=4)
    assert full.oversubscription_ratio == pytest.approx(1.0)
    assert full.bisection_bandwidth() == 2 * 4 * 100.0
    rack = FatTreeTopology(n_hosts=8, hosts_per_leaf=8, n_spines=1)
    assert rack.bisection_bandwidth() == 4 * 100.0


@settings(max_examples=30, deadline=None)
@given(src=st.integers(0, 63), dst=st.integers(0, 63))
def test_property_all_host_pairs_routable(src, dst):
    t = _topo()
    route = t.route(f"h{src}", f"h{dst}")
    # Consecutive nodes are always linked; path is loop-free.
    for a, b in zip(route, route[1:]):
        t.link(a, b)
    assert len(set(route)) == len(route)
    if src != dst:
        same_rack = src // 8 == dst // 8
        assert t.hop_count(f"h{src}", f"h{dst}") == (2 if same_rack else 4)
