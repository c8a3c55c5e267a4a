"""Pluggable network topologies (paper Sec. 7.1, generalized).

The paper evaluates on one wiring — "a simulated 2-level fat tree
network built with 8-port 100Gbps switches, connecting 64 nodes" — but
Flare's core claim is *flexibility*: in-network allreduce that adapts
to where the aggregation capacity actually sits.  This module provides
the base :class:`Topology` contract every wiring implements, the
family registry the CLI and the communicator build from, and the
canonical two-level fat tree.  Further families (multi-level XGFT,
dragonfly, torus, multi-rail) live in :mod:`repro.network.topologies`.

A topology owns nodes and duplex :class:`~repro.network.links.Link`
objects and answers *structural* questions: adjacency, equal-cost
shortest paths, switch capability flags, a hashable fingerprint for
plan caching.  *Path selection* among equal-cost candidates is the
:class:`~repro.network.routing.Router` layer's job, and aggregation
trees are planned by :class:`~repro.network.trees.TreePlanner`.

Node naming: hosts ``h<i>``; switch names are family-specific (the
fat tree keeps the paper's ``l<j>`` leaves and ``s<k>`` spines).
"""

from __future__ import annotations

from repro.network.links import Link

NodeId = str

#: Cap on equal-cost paths enumerated per node pair; tori at scale have
#: combinatorially many minimal paths and ECMP hardware tables are
#: bounded the same way.
MAX_EQUAL_COST_PATHS = 32


class Topology:
    """Base class every network wiring implements.

    Subclasses call :meth:`_add_duplex` to wire duplex links, implement
    :attr:`hosts` and :meth:`describe`, and set :attr:`family`.
    Everything else — adjacency, BFS equal-cost shortest paths,
    fingerprints — is generic.
    """

    #: Registry name of this wiring family (e.g. ``"fat-tree"``).
    family = "generic"

    def __init__(
        self,
        link_gbps: float = 100.0,
        link_latency_ns: float = 250.0,
        aggregation: bool = True,
    ) -> None:
        self.link_gbps = link_gbps
        self.link_latency_ns = link_latency_ns
        #: Whether this fabric's switches can run in-network aggregation
        #: handlers (False models a plain fabric: host-based algorithms
        #: only — the paper's fallback path).
        self.supports_aggregation = aggregation
        self._links: dict[tuple[NodeId, NodeId], Link] = {}
        self._neighbors: dict[NodeId, tuple[NodeId, ...]] = {}
        self._bfs_cache: dict[NodeId, tuple[dict, dict]] = {}
        self._paths_cache: dict[tuple[NodeId, NodeId], list[list[NodeId]]] = {}
        self._failed_links: set[tuple[NodeId, NodeId]] = set()
        self._failed_switches: set[NodeId] = set()
        #: Weak listeners notified of every structural mutation
        #: (fail/repair link/switch, rate changes).  Simulators register
        #: here so derived caches — next-hop memos, the FIFO windows'
        #: link-rate table — are invalidated *at the mutation site* instead of
        #: relying on every caller to remember ``on_topology_change()``.
        self._change_listeners: list = []
        #: Callables run before a ``Link`` is handed out (see ``link``).
        self._read_hooks: list = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _add_duplex(self, a: NodeId, b: NodeId) -> None:
        for src, dst in ((a, b), (b, a)):
            self._links[(src, dst)] = Link(
                src, dst, gbps=self.link_gbps, latency_ns=self.link_latency_ns
            )

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> list[NodeId]:
        raise NotImplementedError

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def switches(self) -> list[NodeId]:
        host_set = set(self.hosts)
        seen: set[NodeId] = set()
        for src, dst in self._links:
            seen.add(src)
            seen.add(dst)
        return sorted(seen - host_set)

    @property
    def nodes(self) -> list[NodeId]:
        return self.hosts + self.switches

    def is_switch(self, node: NodeId) -> bool:
        return not node.startswith("h")

    def aggregating_switches(self) -> list[NodeId]:
        """Switches able to host in-network aggregation handlers
        (excluding any that have failed)."""
        if not self.supports_aggregation:
            return []
        if not self._failed_switches:
            return self.switches
        return [s for s in self.switches if s not in self._failed_switches]

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Adjacent nodes reachable over *healthy* links, in
        deterministic (sorted) order."""
        if not self._neighbors:
            adj: dict[NodeId, set[NodeId]] = {}
            failed = self._failed_links
            for src, dst in self._links:
                # Seed both endpoints so a fully-failed node still
                # answers with an empty adjacency rather than KeyError.
                adj.setdefault(src, set())
                adj.setdefault(dst, set())
                if (src, dst) in failed:
                    continue
                adj[src].add(dst)
            self._neighbors = {n: tuple(sorted(peers)) for n, peers in adj.items()}
        try:
            return self._neighbors[node]
        except KeyError:
            raise ValueError(f"unknown node {node}") from None

    def attach_switch(self, host: NodeId) -> NodeId:
        """The (first) edge switch a host hangs off."""
        for peer in self.neighbors(host):
            if self.is_switch(peer):
                return peer
        raise ValueError(f"host {host} has no switch neighbor")

    # ------------------------------------------------------------------
    # Placement regions
    # ------------------------------------------------------------------
    def regions(self) -> dict[str, tuple[NodeId, ...]]:
        """Host groups a placement scheduler packs jobs into.

        The default groups hosts by their edge switch — one region per
        leaf (fat tree), per torus switch, per plane-0 leaf (multi-rail).
        Families with a coarser locality domain override this (the
        dragonfly groups by *pod*: intra-group traffic never crosses a
        global link).  Region names double as the key the scheduler uses
        to match :class:`TrafficStats` hot links against regions.

        Regions are *structural* (computed over all wired links, failed
        included, and cached): placement stays stable under fault
        injection, and a job placed into a wounded region recovers
        through the fabric's rerouting/self-healing machinery, not by
        silently moving.
        """
        cached = getattr(self, "_regions_cache", None)
        if cached is None:
            groups: dict[str, list[NodeId]] = {}
            for h in self.hosts:
                groups.setdefault(self._region_key(h), []).append(h)
            cached = {name: tuple(hosts) for name, hosts in sorted(groups.items())}
            self._regions_cache = cached
        return cached

    def _region_key(self, host: NodeId) -> str:
        """Which region ``host`` belongs to (default: its edge switch)."""
        for src, dst in self._links:
            if src == host and self.is_switch(dst):
                return dst
        raise ValueError(f"host {host} has no switch neighbor")

    def region_of(self, host: NodeId) -> str:
        """The region ``host`` belongs to (see :meth:`regions`)."""
        mapping = getattr(self, "_region_of_cache", None)
        if mapping is None:
            mapping = {
                h: name for name, hosts in self.regions().items() for h in hosts
            }
            self._region_of_cache = mapping
        try:
            return mapping[host]
        except KeyError:
            raise ValueError(f"unknown host {host}") from None

    def region_switches(self, region: str) -> tuple[NodeId, ...]:
        """Switches whose links count as *inside* ``region`` when the
        placement scheduler scores regions against hot links.  The
        default (edge-switch regions) is the region switch itself."""
        if region not in self.regions():
            raise ValueError(f"unknown region {region}")
        return (region,)

    def _before_read(self) -> None:
        """Run the read hooks: network simulators with deferred hop
        window state settle it before a ``Link`` is handed out."""
        for hook in tuple(self._read_hooks):
            hook()

    def link(self, src: NodeId, dst: NodeId) -> Link:
        if self._read_hooks:
            self._before_read()
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ValueError(f"no link {src} -> {dst}") from None

    def links(self) -> list[Link]:
        if self._read_hooks:
            self._before_read()
        return list(self._links.values())

    # ------------------------------------------------------------------
    # Change listeners (cache invalidation across simulators)
    # ------------------------------------------------------------------
    def add_change_listener(self, listener) -> None:
        """Register ``listener(event, *args)`` for structural mutations.

        Events: ``("fail_link", a, b)``, ``("repair_link", a, b)``,
        ``("fail_switch", s)``, ``("repair_switch", s)``,
        ``("set_link_rate", a, b, gbps)``.  Held via weakref when
        possible so a topology never keeps a simulator alive.
        """
        import weakref

        if hasattr(listener, "__self__"):  # bound method: weak-ref the owner
            ref = weakref.WeakMethod(listener)
        else:
            try:
                ref = weakref.ref(listener)
            except TypeError:  # e.g. a builtin without __weakref__
                ref = lambda _l=listener: _l  # noqa: E731
        self._change_listeners.append(ref)

    def _notify(self, event: str, *args) -> None:
        listeners = self._change_listeners
        if not listeners:
            return
        live = []
        for ref in listeners:
            cb = ref()
            if cb is None:
                continue
            live.append(ref)
            cb(event, *args)
        if len(live) != len(listeners):
            self._change_listeners = live

    def set_link_rate(self, a: NodeId, b: NodeId, gbps: float) -> None:
        """Re-rate the duplex link ``a <-> b`` (both directions).

        Goes through :meth:`Link.set_gbps` so the cached bytes/ns
        divisor is rebuilt, and notifies change listeners so derived
        rate tables pick the new value up.
        """
        found = False
        for key in ((a, b), (b, a)):
            link = self._links.get(key)
            if link is not None:
                link.set_gbps(gbps)
                found = True
        if not found:
            raise ValueError(f"no link {a} <-> {b}")
        self._notify("set_link_rate", a, b, gbps)

    # ------------------------------------------------------------------
    # Failure state (chaos/fault injection)
    # ------------------------------------------------------------------
    def _invalidate_path_caches(self) -> None:
        self._neighbors = {}
        self._bfs_cache.clear()
        self._paths_cache.clear()

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Take the duplex link ``a <-> b`` out of service.

        Path computation (and therefore every routing policy) stops
        using it immediately; the :class:`~repro.network.links.Link`
        objects remain addressable for inspection and repair.
        """
        found = False
        for key in ((a, b), (b, a)):
            link = self._links.get(key)
            if link is not None:
                self._failed_links.add(key)
                link.failed = True
                found = True
        if not found:
            raise ValueError(f"no link {a} <-> {b}")
        self._invalidate_path_caches()
        self._notify("fail_link", a, b)

    def repair_link(self, a: NodeId, b: NodeId) -> None:
        """Return the duplex link ``a <-> b`` to service."""
        for key in ((a, b), (b, a)):
            link = self._links.get(key)
            if link is not None:
                self._failed_links.discard(key)
                link.failed = False
                link.fault = None
        self._invalidate_path_caches()
        self._notify("repair_link", a, b)

    def fail_switch(self, switch: NodeId) -> None:
        """Take a whole switch out of service: every attached link goes
        down and the switch stops offering in-network aggregation."""
        if switch not in set(self.switches):
            raise ValueError(f"unknown switch {switch}")
        self._failed_switches.add(switch)
        for key, link in self._links.items():
            if switch in key:
                self._failed_links.add(key)
                link.failed = True
        self._invalidate_path_caches()
        self._notify("fail_switch", switch)

    def repair_switch(self, switch: NodeId) -> None:
        """Return a switch (and its links, unless independently failed)
        to service."""
        self._failed_switches.discard(switch)
        for key, link in self._links.items():
            if switch in key:
                other = key[0] if key[1] == switch else key[1]
                if other in self._failed_switches:
                    continue
                self._failed_links.discard(key)
                link.failed = False
                link.fault = None
        self._invalidate_path_caches()
        self._notify("repair_switch", switch)

    def failed_links(self) -> set[tuple[NodeId, NodeId]]:
        """Directed link keys currently out of service."""
        return set(self._failed_links)

    def failed_switches(self) -> set[NodeId]:
        return set(self._failed_switches)

    # ------------------------------------------------------------------
    # Shortest paths (the raw material routers select from)
    # ------------------------------------------------------------------
    def _bfs(self, src: NodeId) -> tuple[dict[NodeId, int], dict[NodeId, list[NodeId]]]:
        """Distances and shortest-path predecessors from ``src``."""
        cached = self._bfs_cache.get(src)
        if cached is not None:
            return cached
        dist: dict[NodeId, int] = {src: 0}
        preds: dict[NodeId, list[NodeId]] = {src: []}
        frontier = [src]
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                d = dist[node]
                for peer in self.neighbors(node):
                    if peer not in dist:
                        dist[peer] = d + 1
                        preds[peer] = [node]
                        nxt.append(peer)
                    elif dist[peer] == d + 1:
                        preds[peer].append(node)
            frontier = nxt
        self._bfs_cache[src] = (dist, preds)
        return dist, preds

    def paths(self, src: NodeId, dst: NodeId) -> list[list[NodeId]]:
        """All equal-cost shortest paths src -> dst, deterministic order.

        Capped at :data:`MAX_EQUAL_COST_PATHS` entries (the cap is
        deterministic too: enumeration follows sorted-neighbor order).
        """
        if src == dst:
            return [[src]]
        key = (src, dst)
        cached = self._paths_cache.get(key)
        if cached is not None:
            return cached
        dist, preds = self._bfs(src)
        if dst not in dist:
            raise ValueError(f"no path {src} -> {dst}")
        out: list[list[NodeId]] = []
        stack: list[NodeId] = [dst]

        def walk(node: NodeId) -> None:
            if len(out) >= MAX_EQUAL_COST_PATHS:
                return
            if node == src:
                out.append(list(reversed(stack)))
                return
            for pred in preds[node]:
                stack.append(pred)
                walk(pred)
                stack.pop()

        walk(dst)
        self._paths_cache[key] = out
        return out

    def hop_count(self, src: NodeId, dst: NodeId) -> int:
        if src == dst:
            return 0
        dist, _ = self._bfs(src)
        if dst not in dist:
            raise ValueError(f"no path {src} -> {dst}")
        return dist[dst]

    def route(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """A deterministic shortest path (first in canonical order).

        Kept for direct structural inspection; simulations route through
        a :class:`~repro.network.routing.Router` policy instead.
        """
        return self.paths(src, dst)[0]

    def path_links(self, src: NodeId, dst: NodeId) -> list[Link]:
        nodes = self.route(src, dst)
        return [self.link(a, b) for a, b in zip(nodes, nodes[1:])]

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Constructor kwargs that rebuild an identical topology."""
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """Hashable identity: family + parameters.

        Two topologies with equal fingerprints wire identical fabrics,
        which is what lets the plan cache reuse a plan across distinct
        but equal topology objects.  Structural only — live failure
        state is deliberately excluded (issue-time fabric checks and
        provenance identity key on what the fabric *is*); cache keys
        that must react to failures use :meth:`live_fingerprint`.
        """
        return (self.family, tuple(sorted(self.describe().items())))

    def live_fingerprint(self) -> tuple:
        """:meth:`fingerprint` plus the live failure state.

        The plan-cache key (:meth:`CollectiveRequest.signature
        <repro.comm.request.CollectiveRequest.signature>`) freezes
        topology objects to this, so a plan built *before*
        :meth:`fail_link`/:meth:`fail_switch` is never served *after*
        the mutation (it could route through dead hardware until
        issue-time recovery noticed).  Repairing back to a previous
        state restores the previous key, so healthy cached plans are
        reused again after a repair.
        """
        return (
            self.fingerprint(),
            tuple(sorted(self._failed_links)),
            tuple(sorted(self._failed_switches)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.describe().items()))
        return f"{type(self).__name__}({params})"


# ----------------------------------------------------------------------
# Family registry: the fat tree below, and the families of
# :mod:`repro.network.topologies`, imported at the end of this module.
# ----------------------------------------------------------------------
TOPOLOGIES: dict[str, type[Topology]] = {}


def register_topology(cls: type[Topology]) -> type[Topology]:
    """Class decorator adding a topology family to the registry."""
    if cls.family in TOPOLOGIES:
        raise ValueError(f"topology family {cls.family!r} already registered")
    TOPOLOGIES[cls.family] = cls
    return cls


def available_topologies() -> tuple[str, ...]:
    return tuple(sorted(TOPOLOGIES))


def build_topology(family: str, **params) -> Topology:
    """Instantiate a registered topology family by name."""
    try:
        cls = TOPOLOGIES[family]
    except KeyError:
        raise ValueError(
            f"unknown topology family {family!r}; "
            f"available: {available_topologies()}"
        ) from None
    return cls(**params)


# ----------------------------------------------------------------------
# The paper's fat tree
# ----------------------------------------------------------------------
@register_topology
class FatTreeTopology(Topology):
    """Two-level fat tree with full leaf-spine bipartite wiring.

    The paper's default: XGFT(2; 8,8; 1,4) — 8 leaf switches with 8
    hosts each, 4 spine switches, every leaf wired to every spine (a
    radix-exact 2-level tree of true 8-port switches cannot reach 64
    hosts, as documented in DESIGN.md).  Hop counts match any 2-level
    tree: host-leaf-host within a rack, host-leaf-spine-leaf-host
    across racks.

    ``n_spines`` may not exceed the leaf uplink capacity —
    ``hosts_per_leaf`` by default (uplinks <= downlinks), or
    ``leaf_radix - hosts_per_leaf`` when an explicit switch radix is
    given.  ``n_spines < hosts_per_leaf`` builds an *oversubscribed*
    tree (see :attr:`oversubscription_ratio`).
    """

    family = "fat-tree"

    def __init__(
        self,
        n_hosts: int = 64,
        hosts_per_leaf: int = 8,
        n_spines: int = 4,
        link_gbps: float = 100.0,
        link_latency_ns: float = 250.0,
        leaf_radix: int | None = None,
        aggregation: bool = True,
    ) -> None:
        super().__init__(link_gbps, link_latency_ns, aggregation)
        if n_hosts < 1 or hosts_per_leaf < 1:
            raise ValueError(
                f"a fat tree needs n_hosts >= 1 and hosts_per_leaf >= 1, "
                f"got {n_hosts} and {hosts_per_leaf}"
            )
        if n_hosts % hosts_per_leaf != 0:
            raise ValueError("hosts_per_leaf must divide n_hosts")
        if n_spines < 1:
            raise ValueError("need at least one spine")
        uplink_capacity = (
            leaf_radix - hosts_per_leaf if leaf_radix is not None else hosts_per_leaf
        )
        if uplink_capacity < 1:
            raise ValueError(
                f"leaf_radix={leaf_radix} leaves no uplink ports beyond "
                f"{hosts_per_leaf} host ports"
            )
        if n_spines > uplink_capacity:
            raise ValueError(
                f"n_spines={n_spines} exceeds the leaf uplink capacity of "
                f"{uplink_capacity} (each leaf has {hosts_per_leaf} host ports"
                + (f" on a radix-{leaf_radix} switch" if leaf_radix else
                   "; uplinks cannot outnumber downlinks")
                + ")"
            )
        self.n_hosts = n_hosts
        self.hosts_per_leaf = hosts_per_leaf
        self.n_leaves = n_hosts // hosts_per_leaf
        self.n_spines = n_spines
        self.leaf_radix = leaf_radix
        for h in range(n_hosts):
            self._add_duplex(f"h{h}", self.leaf_of(f"h{h}"))
        for leaf_idx in range(self.n_leaves):
            for s in range(n_spines):
                self._add_duplex(f"l{leaf_idx}", f"s{s}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    #: Plain class attribute shadowing the base class's derived
    #: property, so ``self.n_hosts = ...`` in ``__init__`` binds.
    n_hosts = 0

    @property
    def hosts(self) -> list[NodeId]:
        return [f"h{i}" for i in range(self.n_hosts)]

    @property
    def leaves(self) -> list[NodeId]:
        return [f"l{i}" for i in range(self.n_leaves)]

    @property
    def spines(self) -> list[NodeId]:
        return [f"s{i}" for i in range(self.n_spines)]

    def leaf_of(self, host: NodeId) -> NodeId:
        idx = int(host[1:])
        if not 0 <= idx < self.n_hosts:
            raise ValueError(f"unknown host {host}")
        return f"l{idx // self.hosts_per_leaf}"

    def hosts_under(self, leaf: NodeId) -> list[NodeId]:
        j = int(leaf[1:])
        base = j * self.hosts_per_leaf
        return [f"h{i}" for i in range(base, base + self.hosts_per_leaf)]

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def bisection_bandwidth(self) -> float:
        """Gbps crossing a worst-case host bisection (through the spines).

        Splitting the racks in half, all cross-half traffic climbs the
        uplinks of one half's leaves: ``(n_leaves // 2) * n_spines``
        links.  A single-rack tree has no spine cut; its bisection is
        the host links of half the rack.
        """
        if self.n_leaves == 1:
            return (self.hosts_per_leaf // 2) * self.link_gbps
        return (self.n_leaves // 2) * self.n_spines * self.link_gbps

    @property
    def oversubscription_ratio(self) -> float:
        """Leaf downlink:uplink bandwidth ratio (1.0 = full bisection)."""
        return self.hosts_per_leaf / self.n_spines

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        out = dict(
            n_hosts=self.n_hosts,
            hosts_per_leaf=self.hosts_per_leaf,
            n_spines=self.n_spines,
            link_gbps=self.link_gbps,
            link_latency_ns=self.link_latency_ns,
        )
        if self.leaf_radix is not None:
            out["leaf_radix"] = self.leaf_radix
        if not self.supports_aggregation:
            out["aggregation"] = False
        return out


# The other built-in families register before any importer of this
# module can read the registry.
import repro.network.topologies  # noqa: E402,F401
