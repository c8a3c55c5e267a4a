"""Aggregation-tree planning over any topology (paper Sec. 4).

For in-network allreduce the network manager picks a root switch;
every switch on the tree aggregates its directly attached hosts plus
its child switches and forwards one stream to its parent, and the root
multicasts the fully reduced data back down.  This module plans that
tree for *any* :class:`repro.network.topology.Topology`:

* :class:`AggregationTree` — the planned structure (root, switch
  children, hosts per switch);
* :class:`TreePlanner` — static planning (BFS over the switch graph
  from a chosen root, pruned to switches that actually serve hosts)
  and a Canary-style *dynamic* mode that scores candidate roots by
  live link utilization and re-roots the tree away from congested
  links.  On the fat tree the static plan is the classic spine-rooted
  two-level embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.topology import NodeId, Topology


@dataclass(frozen=True)
class AggregationTree:
    """A reduction tree over arbitrary topology switches.

    ``children_of`` maps each switch to its child *switches* (tree
    edges, always single topology links); ``hosts_of`` maps each switch
    to the hosts it aggregates directly.  Hosts attach to exactly one
    switch, every non-root switch has exactly one parent.
    """

    root: NodeId
    children_of: dict[NodeId, tuple[NodeId, ...]]
    hosts_of: dict[NodeId, tuple[NodeId, ...]]
    _parent_of: dict[NodeId, NodeId] = field(default_factory=dict, repr=False)
    _attach_of: dict[NodeId, NodeId] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for parent, kids in self.children_of.items():
            for kid in kids:
                self._parent_of[kid] = parent
        for switch, hosts in self.hosts_of.items():
            for h in hosts:
                self._attach_of[h] = switch

    # ------------------------------------------------------------------
    def switches(self) -> list[NodeId]:
        """Tree switches, root first, then BFS order."""
        out = [self.root]
        frontier = [self.root]
        while frontier:
            nxt: list[NodeId] = []
            for s in frontier:
                for kid in self.children_of.get(s, ()):
                    out.append(kid)
                    nxt.append(kid)
            frontier = nxt
        return out

    def all_hosts(self) -> list[NodeId]:
        out: list[NodeId] = []
        for s in self.switches():
            out.extend(self.hosts_of.get(s, ()))
        return out

    def parent_of(self, switch: NodeId) -> "NodeId | None":
        return self._parent_of.get(switch)

    def attach_of(self, host: NodeId) -> NodeId:
        return self._attach_of[host]

    def fan_in(self, switch: NodeId) -> int:
        return len(self.children_of.get(switch, ())) + len(self.hosts_of.get(switch, ()))

    def subtree_hosts(self, switch: NodeId) -> int:
        """Number of hosts aggregated at or below ``switch``."""
        total = len(self.hosts_of.get(switch, ()))
        for kid in self.children_of.get(switch, ()):
            total += self.subtree_hosts(kid)
        return total

    def depth(self) -> int:
        """Switch levels on the longest root-to-host branch."""
        def walk(s: NodeId) -> int:
            kids = self.children_of.get(s, ())
            return 1 + max((walk(k) for k in kids), default=0)

        return walk(self.root)

    def tree_links(self) -> list[tuple[NodeId, NodeId]]:
        """All (parent, child) switch edges plus (switch, host) edges."""
        out: list[tuple[NodeId, NodeId]] = []
        for parent, kids in self.children_of.items():
            out.extend((parent, kid) for kid in kids)
        for switch, hosts in self.hosts_of.items():
            out.extend((switch, h) for h in hosts)
        return out


class TreePlanner:
    """Builds aggregation trees over any topology.

    Static planning (:meth:`plan`) roots a BFS tree at a chosen
    aggregation-capable switch and prunes branches that serve no hosts;
    on the fat tree this reproduces the classic spine-rooted two-level
    embedding exactly.  Dynamic planning (:meth:`plan_dynamic`) scores
    every candidate root by the worst live link load its tree would
    traverse and picks the least congested — Canary's trick of
    re-rooting reduction trees away from hot links, using the very
    link objects the simulator serializes traffic on.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        if not topology.aggregating_switches():
            raise ValueError(
                f"topology {topology.family!r} has no aggregation-capable "
                "switches; use a host-based algorithm"
            )

    # ------------------------------------------------------------------
    def candidate_roots(self) -> list[NodeId]:
        """Aggregation-capable switches, topmost (farthest from any
        host) first — spines before leaves, top of a deep XGFT before
        its middle levels."""
        topo = self.topology
        dist: dict[NodeId, int] = {h: 0 for h in topo.hosts}
        frontier = list(topo.hosts)
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                for peer in topo.neighbors(node):
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        nxt.append(peer)
            frontier = nxt
        switches = topo.aggregating_switches()
        return sorted(switches, key=lambda s: (-dist.get(s, 0), s))

    def plan(
        self,
        root: "NodeId | None" = None,
        hosts: "list[NodeId] | None" = None,
    ) -> AggregationTree:
        """BFS aggregation tree rooted at ``root`` (default: first
        candidate), pruned to branches that serve hosts.

        ``hosts`` restricts the tree to a participant subset (placement:
        a tenant's job aggregates only its placed hosts, so the tree —
        and the switch pools it draws on at admission — shrinks to the
        regions the job actually occupies).  With no explicit ``root``,
        a subset tree is rooted at the switch giving the *fewest tree
        switches* (a single-rack job aggregates at its leaf instead of
        climbing to a spine), ties keeping the static candidate order.
        Default: every host.
        """
        topo = self.topology
        if root is None:
            if hosts is not None:
                candidates = self.candidate_roots()
                trees = [self.plan(r, hosts=hosts) for r in candidates]
                return min(
                    zip(trees, range(len(trees))),
                    key=lambda ti: (len(ti[0].switches()), ti[1]),
                )[0]
            root = self.candidate_roots()[0]
        elif root not in topo.aggregating_switches():
            raise ValueError(f"{root} is not an aggregation-capable switch")
        if hosts is not None:
            known = set(topo.hosts)
            for h in hosts:
                if h not in known:
                    raise ValueError(f"unknown host {h}")
            if len(set(hosts)) != len(hosts):
                raise ValueError("duplicate hosts in placement")
        parent: dict[NodeId, NodeId] = {}
        order: list[NodeId] = [root]
        frontier = [root]
        visited = {root}
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                for peer in topo.neighbors(node):
                    if topo.is_switch(peer) and peer not in visited:
                        visited.add(peer)
                        parent[peer] = node
                        order.append(peer)
                        nxt.append(peer)
            frontier = nxt
        hosts_of: dict[NodeId, list[NodeId]] = {s: [] for s in order}
        for host in hosts if hosts is not None else topo.hosts:
            attach = next(
                (p for p in topo.neighbors(host) if p in visited), None
            )
            if attach is None:
                raise ValueError(f"host {host} is unreachable from root {root}")
            hosts_of[attach].append(host)
        # Prune switches whose subtree serves no hosts (e.g. the other
        # spines, which BFS reached as grandchildren through the leaves).
        serves: dict[NodeId, bool] = {}
        for node in reversed(order):
            kids = [k for k, p in parent.items() if p == node]
            serves[node] = bool(hosts_of[node]) or any(serves[k] for k in kids)
        children_of: dict[NodeId, tuple[NodeId, ...]] = {
            s: tuple(k for k in order if parent.get(k) == s and serves[k])
            for s in order
            if serves[s]
        }
        return AggregationTree(
            root=root,
            children_of=children_of,
            hosts_of={s: tuple(h) for s, h in hosts_of.items() if s in children_of},
        )

    # ------------------------------------------------------------------
    def plan_dynamic(
        self,
        roots: "list[NodeId] | None" = None,
        hosts: "list[NodeId] | None" = None,
    ) -> AggregationTree:
        """Congestion-aware (Canary-style) planning.

        Builds the candidate tree for each root and scores it by the
        worst ``(busy_until, bytes_carried)`` over every link the tree
        uses (both directions — reduction climbs, multicast descends).
        Returns the tree with the coolest worst link; ties keep the
        static order, so an idle network plans exactly like
        :meth:`plan`.  ``hosts`` restricts every candidate to a
        participant subset, exactly as in :meth:`plan`.
        """
        best: "tuple[tuple[float, float], AggregationTree] | None" = None
        for root in roots if roots is not None else self.candidate_roots():
            tree = self.plan(root, hosts=hosts)
            score = self._tree_score(tree)
            if best is None or score < best[0]:
                best = (score, tree)
        if best is None:
            raise ValueError("no candidate roots to plan over")
        return best[1]

    def _tree_score(self, tree: AggregationTree) -> tuple[float, float]:
        worst_busy = 0.0
        worst_bytes = 0.0
        for parent, child in tree.tree_links():
            for a, b in ((parent, child), (child, parent)):
                link = self.topology.link(a, b)
                worst_busy = max(worst_busy, link.busy_until)
                worst_bytes = max(worst_bytes, link.bytes_carried)
        return (worst_busy, worst_bytes)
