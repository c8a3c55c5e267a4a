"""Routing policies: pick one path among a topology's equal-cost set.

The topology layer answers "which shortest paths exist"; this layer
answers "which one does this message take".  Three policies:

* :class:`ShortestPathRouter` — always the first path in canonical
  order (deterministic, congestion-oblivious; the worst case ECMP is
  meant to fix);
* :class:`EcmpRouter` — hash-based spreading over the equal-cost set,
  seeded through :func:`repro.utils.rngtools.ecmp_salt` so the same
  seed picks the same paths in every run and every process;
* :class:`AdaptiveRouter` — congestion-aware selection using the load
  the simulator has routed onto each link so far, the Canary-style
  policy that steers flows off hot links.

Routers are consulted *per hop*: the simulator asks for a route from
the message's current node, so adaptive decisions track congestion as
it develops.  Every policy only ever picks among minimal paths, and
each hop strictly decreases the BFS distance to the destination, so
routes are loop-free under all policies.
"""

from __future__ import annotations

import numpy as np

from repro.network.links import Link
from repro.network.topology import FatTreeTopology, NodeId, Topology
from repro.utils.rngtools import ecmp_salt, stable_hash

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer over a 64-bit integer key.

    The up-down router's spine selection must be computable both one
    message at a time (per-event hops) and over whole numpy batches
    (FIFO hop windows) with *identical* results —
    which rules out the string-based :func:`stable_hash`.  This scalar
    form and :func:`mix64_np` implement the same wrapping arithmetic.
    """
    x &= _M64
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` (uint64 in, uint64 out, bit-identical)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class Router:
    """Base path-selection policy over one topology."""

    name = "base"
    #: ``assign(link, nbytes, now)``: the simulator reports each message
    #: it routes onto a link (None: the policy needs no reports).
    assign = None
    #: True when ``next_hop(node, dst)`` is a pure function of its
    #: arguments (no live link state), so the simulator may memoize it.
    cacheable = False
    #: True when ``next_hop`` is O(1) arithmetic on the node names,
    #: cheaper than the simulator's ``(node, dst)`` memo, which then
    #: stays off (a memo entry per pair only costs memory).
    closed_form = False

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self.topology = topology
        self.seed = seed

    def select(self, src: NodeId, dst: NodeId, paths: list[list[NodeId]]) -> list[NodeId]:
        raise NotImplementedError

    def route(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """The node path this policy assigns to (src, dst) right now."""
        if src == dst:
            return [src]
        return self.select(src, dst, self.topology.paths(src, dst))

    def next_hop(self, node: NodeId, dst: NodeId) -> NodeId:
        return self.route(node, dst)[1]

    def path_links(self, src: NodeId, dst: NodeId) -> list[Link]:
        nodes = self.route(src, dst)
        return [self.topology.link(a, b) for a, b in zip(nodes, nodes[1:])]

    def describe(self) -> dict:
        return {"policy": self.name, "seed": self.seed}


class ShortestPathRouter(Router):
    """Deterministic single-path routing: first path in canonical
    order.  Every flow between a node pair shares one path — the
    congestion-prone baseline the adaptive tests compare against."""

    name = "shortest"
    cacheable = True

    def select(self, src, dst, paths):
        return paths[0]


class EcmpRouter(Router):
    """Hash-based equal-cost multi-path.

    The (src, dst) pair is hashed onto the equal-cost set with a
    process-stable hash salted from the seed, mirroring how switches
    hash flow five-tuples onto next-hops.  Same seed, same picks, every
    run — the reproducibility contract of the F3 flexibility axis.
    """

    name = "ecmp"
    cacheable = True

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        super().__init__(topology, seed)
        self._salt = ecmp_salt(seed)

    def select(self, src, dst, paths):
        return paths[stable_hash(src, dst, salt=self._salt) % len(paths)]


class AdaptiveRouter(Router):
    """Congestion-aware selection over the equal-cost set.

    Scores each candidate path by the worst link on it — (latest
    ``until``, most bytes) of the load routed onto the link so far —
    and takes the least congested, falling back to ECMP order among
    exact ties.  The simulator reports each message as it routes it
    onto a link (:meth:`assign`), so the score counts messages still
    waiting in a WFQ queue as well as those on the wire; re-evaluated
    at every hop, it steers chunks around queues as they build, the way
    Canary re-routes reduction traffic.
    """

    name = "adaptive"

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        super().__init__(topology, seed)
        self._salt = ecmp_salt(seed)
        #: (src, dst) -> (until, bytes) of the messages routed onto it.
        self._load: dict = {}

    def assign(self, link: Link, nbytes: int, now: float) -> None:
        """Count a message routed onto ``link`` at ``now`` by FIFO's
        rule: it holds the link from ``max(now, until)`` for ``nbytes``
        at the line rate.  Under FIFO arbitration this is the link's
        own ``busy_until``/``bytes_carried``."""
        key = link.key
        until, carried = self._load.get(key, (0.0, 0))
        rate = link._rate
        fault = link.fault
        if fault is not None and fault.kind == "slow":
            rate = rate / fault.slow_factor
        start = now if now > until else until
        self._load[key] = (start + nbytes / rate, carried + nbytes)

    def _score(self, path: list[NodeId]) -> tuple[float, int]:
        loads = [self._load.get(key, (0.0, 0)) for key in zip(path, path[1:])]
        return (max(until for until, _ in loads), max(nbytes for _, nbytes in loads))

    def select(self, src, dst, paths):
        if len(paths) == 1:
            return paths[0]
        tiebreak = stable_hash(src, dst, salt=self._salt) % len(paths)
        return min(
            enumerate(paths),
            key=lambda ip: (self._score(ip[1]), (ip[0] - tiebreak) % len(paths)),
        )[1]


class UpDownRouter(Router):
    """Closed-form up-down routing for two-level fat trees.

    ``paths()``-based policies BFS the whole graph per source — fine at
    64 hosts, catastrophic at 100k.  This policy computes each hop in
    O(1) from the tree structure: climb to the leaf, cross one spine
    when the endpoints sit under different leaves, descend.  The spine
    is picked by salting the (current leaf, destination) pair through
    :func:`mix64`, so the *same* selection runs vectorized over numpy
    batches in FIFO hop windows (see ``repro.network.windows``).

    Structural/oblivious: like real up-down tables it does not consult
    failure state — use ``shortest``/``ecmp``/``adaptive`` for
    fault-rerouting studies.  On non-fat-tree topologies it falls back
    to the topology's own canonical route.
    """

    name = "updown"
    cacheable = True
    closed_form = True

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        super().__init__(topology, seed)
        self._salt = ecmp_salt(seed)

    def next_hop(self, node: NodeId, dst: NodeId) -> NodeId:
        """``route(node, dst)[1]`` without building the path: a host
        climbs to its leaf; a leaf delivers to ``dst`` (a host below it
        or a spine) or climbs to the salted spine; a spine descends to
        ``dst``'s leaf."""
        topo = self.topology
        if not isinstance(topo, FatTreeTopology):
            return topo.route(node, dst)[1]
        kind = node[0]
        if kind == "h":
            return topo.leaf_of(node)
        dst_leaf = topo.leaf_of(dst) if dst[0] == "h" else dst
        if kind == "l":
            if node == dst_leaf or dst[0] == "s":
                return dst
            return f"s{self.spine_index(int(node[1:]), dst)}"
        if dst_leaf[0] == "s":
            raise ValueError(f"no spine-to-spine path ({node} -> {dst})")
        return dst_leaf

    def spine_index(self, leaf_idx: int, dst: NodeId) -> int:
        """Deterministic spine pick for traffic at leaf ``l<leaf_idx>``
        headed to ``dst`` (a host or a leaf)."""
        topo = self.topology
        dst_num = int(dst[1:])
        # Disambiguate host vs switch destinations in the key space.
        kind_bit = 0 if dst.startswith("h") else 1
        key = (leaf_idx << 34) ^ (kind_bit << 33) ^ dst_num ^ self._salt
        return mix64(key) % topo.n_spines

    def route(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        topo = self.topology
        if not isinstance(topo, FatTreeTopology):
            return topo.route(src, dst)
        if src == dst:
            return [src]
        path = [src]
        at = src
        if src.startswith("h"):
            at = topo.leaf_of(src)
            path.append(at)
        dst_leaf = topo.leaf_of(dst) if dst.startswith("h") else dst
        if at.startswith("l"):
            if dst.startswith("s"):
                path.append(dst)
                return path
            if at != dst_leaf:
                path.append(f"s{self.spine_index(int(at[1:]), dst)}")
                path.append(dst_leaf)
        elif at.startswith("s"):
            if dst_leaf.startswith("s"):
                raise ValueError(f"no spine-to-spine path ({src} -> {dst})")
            path.append(dst_leaf)
        if dst.startswith("h"):
            path.append(dst)
        deduped = [path[0]]
        for node in path[1:]:
            if node != deduped[-1]:
                deduped.append(node)
        return deduped


ROUTERS: dict[str, type[Router]] = {
    ShortestPathRouter.name: ShortestPathRouter,
    EcmpRouter.name: EcmpRouter,
    AdaptiveRouter.name: AdaptiveRouter,
    UpDownRouter.name: UpDownRouter,
}


def available_routers() -> tuple[str, ...]:
    return tuple(sorted(ROUTERS))


def build_router(
    policy: "str | Router | None", topology: Topology, seed: int = 0
) -> Router:
    """Resolve a policy name (or pass through an instance) to a Router.

    ``None`` means the default policy, ECMP — the behavior the paper's
    fat-tree experiments assume.
    """
    if isinstance(policy, Router):
        if policy.topology is not topology:
            raise ValueError(
                "router was built for a different topology instance; "
                "build one per simulation (link state is live)"
            )
        return policy
    name = policy or EcmpRouter.name
    try:
        cls = ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; available: {available_routers()}"
        ) from None
    return cls(topology, seed=seed)
