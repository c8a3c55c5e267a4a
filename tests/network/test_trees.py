"""Tests for aggregation-tree planning over arbitrary topologies,
including the Canary-style congestion-aware dynamic mode."""

import pytest

from repro.network import FatTreeTopology, TreePlanner, build_topology


def _check_tree_invariants(tree, topo):
    hosts = tree.all_hosts()
    assert sorted(hosts) == sorted(topo.hosts)          # every host, once
    for parent, kids in tree.children_of.items():
        for kid in kids:
            topo.link(parent, kid)                      # tree edges are links
            assert tree.parent_of(kid) == parent
    for switch, attached in tree.hosts_of.items():
        for h in attached:
            topo.link(switch, h)
            assert tree.attach_of(h) == switch
    # Pruned: every tree switch serves at least one host.
    for switch in tree.switches():
        assert tree.subtree_hosts(switch) > 0


def test_fat_tree_plan_matches_classic_embedding():
    """Spine s0 aggregates every leaf, each leaf its own rack."""
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    planned = TreePlanner(t).plan()
    assert planned.root == "s0"
    assert tuple(planned.children_of[planned.root]) == tuple(t.leaves)
    for leaf in t.leaves:
        assert planned.hosts_of[leaf] == tuple(t.hosts_under(leaf))
    assert planned.depth() == 2


def test_plan_with_explicit_root():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    tree = TreePlanner(t).plan(root="s1")
    assert tree.root == "s1"
    with pytest.raises(ValueError, match="not an aggregation-capable"):
        TreePlanner(t).plan(root="h3")


@pytest.mark.parametrize("family", ["dragonfly", "torus", "multi-rail", "xgft"])
def test_plan_over_every_family(family):
    topo = build_topology(family)
    tree = TreePlanner(topo).plan()
    _check_tree_invariants(tree, topo)


def test_multi_rail_tree_stays_on_one_rail():
    topo = build_topology("multi-rail")
    tree = TreePlanner(topo).plan()
    rails = {topo.rail_of(s) for s in tree.switches()}
    assert len(rails) == 1


def test_candidate_roots_prefer_topmost_switches():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    roots = TreePlanner(t).candidate_roots()
    assert roots[:2] == ["s0", "s1"]
    x = build_topology("xgft", down=(2, 2, 2), up=(1, 1, 1))
    top = TreePlanner(x).candidate_roots()[0]
    assert x.level_of(top) == 3


def test_planner_refuses_non_aggregating_fabric():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2,
                        aggregation=False)
    with pytest.raises(ValueError, match="no aggregation-capable"):
        TreePlanner(t)


def test_spine_rooted_plan_invariants():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    agg = TreePlanner(t).plan(root="s1")
    assert agg.root == "s1"
    assert agg.depth() == 2
    assert agg.subtree_hosts(agg.root) == 16
    assert agg.fan_in("l0") == 4
    _check_tree_invariants(agg, t)


# ----------------------------------------------------------------------
# Canary-style dynamic re-rooting
# ----------------------------------------------------------------------
def test_dynamic_plan_equals_static_on_idle_network():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    planner = TreePlanner(t)
    assert planner.plan_dynamic().root == planner.plan().root == "s0"


def test_dynamic_plan_re_roots_away_from_congested_links():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    planner = TreePlanner(t)
    # Heat every leaf->s0 uplink (a long transfer occupying the links
    # the s0-rooted tree would need).
    for leaf in t.leaves:
        t.link(leaf, "s0").transmit(10e6, when=0.0)
    tree = planner.plan_dynamic()
    assert tree.root == "s1"
    # And the other way around: heat s1 instead, re-root back to s0.
    t2 = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    for leaf in t2.leaves:
        t2.link("s1", leaf).transmit(10e6, when=0.0)
    assert TreePlanner(t2).plan_dynamic().root == "s0"


def test_dynamic_plan_scores_both_directions():
    """Congestion on the *downward* (root->leaf) links must count too —
    the multicast descends them."""
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    for leaf in t.leaves:
        t.link("s0", leaf).transmit(10e6, when=0.0)   # down direction only
    assert TreePlanner(t).plan_dynamic().root == "s1"


def test_dynamic_plan_restricted_candidates():
    t = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    tree = TreePlanner(t).plan_dynamic(roots=["s1"])
    assert tree.root == "s1"
