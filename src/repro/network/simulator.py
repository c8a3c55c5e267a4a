"""Chunk-level network discrete-event simulator.

Messages travel hop by hop (store-and-forward) over the topology's
links; each hop is an event, so link contention and pipelining across
chunks compose naturally.  Traffic is accounted as bytes carried per
link — summing over links gives the paper's "total number of bytes that
traversed the network" (Fig. 15 right), and the per-link breakdown
(:meth:`TrafficStats.hot_links`) shows where a routing policy piled the
load.  A message carries whole bytes (``send`` rejects any other size),
so every byte counter — a ``Link``'s, the global and per-flow
``TrafficStats`` — is an exact ``int``.

Next hops come from a :class:`repro.network.routing.Router` policy —
deterministic, ECMP, or congestion-adaptive — consulted at every hop,
over any :class:`repro.network.topology.Topology`.

In-network aggregation runs from the collectives' schedule tables
(:mod:`repro.collectives.schedule`): a tree schedule delivers chunks to
each switch and sends the aggregated chunk on once all its children's
chunks have arrived.

Multi-tenancy.  Several collectives may share one simulator: each
message carries a ``flow`` id, delivery callbacks can be registered per
``(node, flow)``, and traffic is accounted both globally and per flow.
Under the default FIFO arbitration, link serialization queues messages
in arrival order (the single-tenant behavior).  With
``arbitration="wfq"`` a busy link instead queues contending messages
and serves them in start-time-fair order weighted by each flow's QoS
weight (:meth:`set_flow_weight`) — the per-tenant arbitration the
shared :class:`repro.comm.fabric.Fabric` uses.  A single flow sees
identical timing under both modes (start tags are monotone per flow),
which is what pins single-tenant parity across the fabric refactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.network.routing import Router, build_router
from repro.network.topology import NodeId, Topology
from repro.pspin.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.faults import FaultInjector, FaultSchedule
    from repro.network.windows import HopRows


_INF = math.inf


def check_sends(msgs, at: float) -> None:
    """Raise ``ValueError`` if the send time ``at`` is NaN or +inf, or a
    message size is not a whole, non-negative number of bytes (NaN and
    +inf included); store a whole float size (``4096.0``) as an ``int``.
    (A time before now means now.)"""
    if not at < _INF:
        raise ValueError(f"send time must not be nan or +inf, got {at!r}")
    for msg in msgs:
        nbytes = msg.nbytes
        if nbytes.__class__ is not int and 0.0 <= nbytes < _INF and nbytes == int(nbytes):
            msg.nbytes = nbytes = int(nbytes)
        if nbytes.__class__ is not int or nbytes < 0:
            raise ValueError(
                f"message size must be non-negative, finite and whole, got {nbytes!r}"
            )


class UnreachableError(RuntimeError):
    """A message exhausted its retransmission budget or lost every
    path to its destination (network partitioned)."""


@dataclass(slots=True)
class Message:
    """One chunk on the wire."""

    src: NodeId
    dst: NodeId
    #: Whole bytes; ``send`` stores a whole float size as an ``int``.
    nbytes: int
    tag: tuple = ()
    payload: object = None
    #: Tenant/collective the chunk belongs to (None = untagged traffic).
    flow: object = None
    #: End-to-end retransmissions this chunk has already burned.
    retries: int = 0
    #: Fault-injected duplicate copy: delivered if it survives, but
    #: never itself recovered (the original owns the retransmission
    #: protocol — otherwise dropped duplicates would feed back into
    #: retransmission storms and burn the retry budget).
    ephemeral: bool = False


@dataclass
class TrafficStats:
    """Aggregate and per-link traffic accounting for one run."""

    bytes_hops: int = 0              # sum over links of bytes carried
    messages: int = 0
    per_link: dict = field(default_factory=dict)   # (src, dst) -> int bytes
    #: Reliability counters (fault-injection runs): messages lost on a
    #: link, spuriously duplicated, and end-to-end retransmissions.
    drops: int = 0
    duplicates: int = 0
    retransmits: int = 0
    #: Per-link reliability attribution (fault-injection runs):
    #: (src, dst) -> count.  Dead-switch swallows have no link and stay
    #: in the run-level ``drops`` only, so ``sum(link_drops.values())
    #: <= drops``.
    link_drops: dict = field(default_factory=dict)
    link_duplicates: dict = field(default_factory=dict)

    @property
    def max_link_bytes(self) -> int:
        """Bytes carried by the most loaded link (the congestion metric
        adaptive routing minimizes)."""
        return max(self.per_link.values(), default=0)

    def hot_links(self, n: int = 5) -> list[tuple[str, int]]:
        """The ``n`` most loaded links as ("src->dst", bytes), hottest
        first (ties broken by link name for determinism)."""
        ranked = sorted(self.per_link.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(f"{src}->{dst}", nbytes) for (src, dst), nbytes in ranked[:n]]


class _LinkQueue:
    """Per-link start-time-fair queue state (WFQ mode only).

    A message sent on the link gets a start tag ``max(vtime, last
    finish tag of its flow)``, and its flow's finish tag advances by
    ``nbytes / weight``, so a flow with weight w gets ~w times the
    service of a weight-1 competitor while both contend.  Messages that
    find the link busy wait on ``heap`` as ``(start, seq, msg)`` and
    leave smallest start tag first (ties by arrival order, ``seq``);
    ``vtime`` is the start tag of the last message served.  A lone
    flow's tags are monotone in arrival order — FIFO.  The hop and
    :meth:`NetworkSimulator._serve` apply these rules.
    """

    __slots__ = ("vtime", "finish_tag", "heap", "armed", "link", "key", "depth_peak")

    def __init__(self, link) -> None:
        self.vtime = 0.0
        self.finish_tag: dict = {}
        self.heap: list = []
        #: True while a ``_serve`` event waits for the link to free.
        self.armed = False
        self.link = link              # cached Link (stable per key)
        self.key = link.key           # (src, dst): the per-link stats key
        #: Provenance: most messages ever waiting at once (counted after
        #: each push, so a transient lone occupant registers as 1).  The
        #: uncontended fast-path bypass never pushes, so under
        #: ``REPRO_FASTPATH`` only genuinely contended instants count.
        self.depth_peak = 0


class NetworkSimulator:
    """Event-driven message transport over a topology.

    ``router`` is a policy name (``"shortest"``/``"ecmp"``/
    ``"adaptive"``), a prebuilt :class:`Router` over the same topology
    object, or ``None`` for the default (seeded deterministic ECMP).
    ``sim`` lets several subsystems share one discrete-event engine
    (the fabric reuses the PsPIN :class:`~repro.pspin.engine.Simulator`
    as its single clock); by default each simulator owns a private one.
    ``arbitration`` selects link scheduling: ``"fifo"`` (legacy
    arrival-order serialization) or ``"wfq"`` (weighted start-time-fair
    queueing across flows).
    """

    def __init__(
        self,
        topology: Topology,
        router: "Router | str | None" = None,
        routing_seed: int = 0,
        sim: Optional[Simulator] = None,
        arbitration: str = "fifo",
    ) -> None:
        if arbitration not in ("fifo", "wfq"):
            raise ValueError(
                f"unknown arbitration {arbitration!r}; use 'fifo' or 'wfq'"
            )
        from repro.pspin.train import fast_path_env_enabled

        self.topology = topology
        self.router = build_router(router, topology, seed=routing_seed)
        self._assign = self.router.assign
        self.sim = sim if sim is not None else Simulator()
        self.arbitration = arbitration
        self._wfq = arbitration == "wfq"
        #: Structural fast paths (next-hop memoization, uncontended WFQ
        #: bypass, burst sends) — identical timing, fewer Python ops.
        #: ``REPRO_FASTPATH=0`` disables them so the benchmark harness
        #: can measure the per-event baseline.
        self.fast_path = fast_path_env_enabled()
        #: ``(node, dst)`` -> the next node under FIFO, or the next
        #: link's :class:`_LinkQueue` under WFQ (None: no memo).
        self._next_hop_cache = self._fresh_memo()
        self._traffic = TrafficStats()
        self._flow_traffic: dict[object, TrafficStats] = {}
        self._flow_weight: dict[object, float] = {}
        self._deliver_cb: dict[tuple, Callable[[Message, float], None]] = {}
        #: flow -> nodes it registered deliver callbacks at, so removing
        #: a finished flow touches only its own registrations.
        self._flow_nodes: dict[object, set] = {}
        self._queues: dict[tuple, _LinkQueue] = {}
        self._queue_seq = 0
        #: Fault injection (None until :meth:`arm_faults`): models loss,
        #: duplication, degradation, and outages on the links.
        self.faults: Optional[FaultInjector] = None
        #: Host timeout before a lost chunk is retransmitted end to end
        #: (paper Sec. 4.1: "a timeout is triggered in the host, that
        #: retransmits the packet").
        self.retransmit_timeout_ns = 50_000.0
        #: Retransmission budget per chunk; exhausting it raises
        #: :class:`UnreachableError` (persistent partition).
        self.max_retransmits = 64
        #: Flows whose collectives were abandoned (e.g. replanned after
        #: a failure): their in-flight chunks are dropped on sight.
        self._dead_flows: set = set()
        # Invalidate the next-hop memo at the mutation site: a direct
        # ``topology.fail_link()`` (no armed fault injector) used to
        # leave the memo stale.
        topology.add_change_listener(self._topology_changed)
        #: Hop rows (:class:`~repro.network.windows.HopRows`), attached
        #: to the engine as its row source under FIFO arbitration with a
        #: pure router.
        self._rows: Optional[HopRows] = None
        if (
            arbitration == "fifo" and self.fast_path
            and self.router.cacheable and self.sim._rows is None
        ):
            from repro.network.windows import HopRows

            self._rows = self.sim._rows = HopRows(self)

    def _fresh_memo(self) -> Optional[dict]:
        """A next-hop memo for routers whose decision is a pure function
        of (node, dst) — shortest and seeded ECMP — while no faults are
        armed; adaptive routing consults live link state and is never
        cached, and up-down's closed form is cheaper than the memo."""
        router = self.router
        if router.cacheable and not router.closed_form and self.fast_path:
            return {}
        return None

    def _settle(self) -> None:
        """Bring a running hop window to the per-event state (see
        :mod:`repro.network.windows`); free outside windows."""
        rows = self._rows
        if rows is not None and rows.dirty:
            rows.settle()

    @property
    def traffic(self) -> TrafficStats:
        """Aggregate traffic of the run so far."""
        self._settle()
        return self._traffic

    @property
    def windowed_hops(self) -> int:
        """Hop events run inside vector FIFO windows so far (0 when
        windows are off); the rest ran one engine event each."""
        return 0 if self._rows is None else self._rows.windowed

    def _topology_changed(self, event: str, *args) -> None:
        self.on_topology_change()
        if self._rows is not None:
            self._rows.on_topology_change(event, args)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def on_deliver(
        self,
        node: NodeId,
        callback: Callable[[Message, float], None],
        flow: object = None,
    ) -> None:
        """Callback when a ``flow`` message terminates at ``node``.

        Registrations are keyed per (node, flow); a message whose flow
        has no registration falls back to the node's flow-``None``
        callback, so single-flow callers need not tag anything.
        """
        self._settle()
        self._deliver_cb[(node, flow)] = callback
        self._flow_nodes.setdefault(flow, set()).add(node)

    def set_flow_weight(self, flow: object, weight: float) -> None:
        """QoS weight used by WFQ link arbitration (default 1.0)."""
        if not 0 < weight < math.inf:      # also rejects nan
            raise ValueError(f"flow weight must be positive and finite, got {weight!r}")
        self._settle()
        # Floored once here rather than per hop: the tags divide by it.
        self._flow_weight[flow] = max(float(weight), 1e-9)

    def remove_flow(self, flow: object) -> None:
        """Drop a finished flow's callbacks, weight, queue tags, and
        traffic stats.  Long-lived fabrics call this per collective, so
        per-flow state must not accumulate; results snapshot what they
        need from :meth:`flow_stats` before the flow is removed (global
        stats always remain)."""
        self._settle()
        self._flow_weight.pop(flow, None)
        self._flow_traffic.pop(flow, None)
        for node in self._flow_nodes.pop(flow, ()):
            del self._deliver_cb[(node, flow)]
        for queue in self._queues.values():
            queue.finish_tag.pop(flow, None)

    def abandon_flow(self, flow: object) -> None:
        """Drop a flow's callbacks *and* its in-flight traffic.

        Used when a collective is replanned after a failure: chunks of
        the dead flow still in the event heap are discarded at their
        next hop instead of delivering into stale callbacks."""
        self._settle()
        self._dead_flows.add(flow)
        self.remove_flow(flow)

    def flow_stats(self, flow: object = None) -> TrafficStats:
        """Traffic carried by one flow (global stats when ``flow`` is
        None).  Untagged messages only appear in the global stats."""
        self._settle()
        if flow is None:
            return self._traffic
        return self._flow_traffic.setdefault(flow, TrafficStats())

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def arm_faults(
        self,
        schedule: "FaultSchedule | None" = None,
        seed: Optional[int] = None,
    ) -> FaultInjector:
        """Attach (and return) the fault injector, arming ``schedule``.

        Arming *provably disengages* the structural fast paths: the
        next-hop memo is discarded (routes change under failures), burst
        trains split back into per-packet events, and the uncontended
        WFQ bypass is skipped — every chunk takes the per-packet DES
        path where loss, duplication and retransmission are exact.
        """
        from repro.network.faults import FaultInjector, FaultSchedule

        self._settle()
        if self.faults is None:
            self.faults = FaultInjector(self, seed=seed or 0)
            self.fast_path = False
            self._next_hop_cache = None
        elif seed is not None:
            self.faults.seed = seed
            from repro.utils.rngtools import stable_hash

            self.faults._salt = stable_hash("fault-injector", seed)
        if schedule is not None:
            for spec in FaultSchedule.from_any(schedule):
                self.faults.inject(spec)
        return self.faults

    def on_topology_change(self) -> None:
        """Clear routing memos after a link/switch failure, repair or
        re-rating (the topology's own path caches are already reset).
        They fill again from the live topology; armed faults keep them
        off for good."""
        self._settle()
        if self.faults is None:
            self._next_hop_cache = self._fresh_memo()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: Message, at: float = 0.0) -> None:
        """Inject a message at its source at absolute time ``at`` (a
        time before now means now).

        Sent while the engine is idle, a hop a FIFO window may take
        (untagged) goes straight into the hop rows with the ``seq`` the
        engine would have given its event
        (:meth:`repro.network.windows.HopRows.push`).
        """
        nbytes = msg.nbytes
        if nbytes.__class__ is not int or nbytes < 0 or not at < _INF:
            check_sends((msg,), at)
        sim = self.sim
        now = sim.now
        t = at if at > now else now
        rows = self._rows
        if rows is not None and not sim.running and msg.flow is None:
            rows.push(t, msg)
        else:
            sim.schedule_fast(t, self._hop, (msg, msg.src))

    def send_burst(self, msgs: list[Message], at: float = 0.0) -> None:
        """Inject a burst of messages at one time under ONE event.

        Equivalent to ``send`` per message (consecutive same-instant
        events with no interleaving process back-to-back in order), but
        costs a single heap event — collectives use it for the per-
        segment sub-chunk trains they issue at the same instant.
        """
        check_sends(msgs, at)
        now = self.sim.now
        if not self.fast_path:
            for msg in msgs:
                self.send(msg, at=at)
            return
        self.sim.schedule_fast(at if at > now else now, self._hop_burst, (msgs,))

    def _hop_burst(self, msgs: list[Message]) -> None:
        hop = self._hop
        for msg in msgs:
            hop(msg, msg.src)

    def _hop(self, msg: Message, node: NodeId) -> None:
        """One hop: deliver at the destination, else route and hand the
        message to its next link.  Under WFQ the whole hop is this one
        call: the memo maps ``(node, dst)`` straight to the link's
        queue, the flow's tags update once, and the message either
        leaves at once (the uncontended bypass, which a push and pop
        would serve alike) or waits for :meth:`_serve`."""
        flow = msg.flow
        if self._dead_flows and flow in self._dead_flows:
            return  # collective was abandoned/replanned; chunk discarded
        dst = msg.dst
        if node == dst:
            if self.faults is not None:
                # The chunk got through; a fresh loss later (e.g. of a
                # duplicate) starts a fresh retransmission budget.
                msg.retries = 0
            cb = self._deliver_cb.get((node, flow))
            if cb is None and flow is not None:
                cb = self._deliver_cb.get((node, None))
            if cb is not None:
                cb(msg, self.sim.now)
            return
        wfq = self._wfq
        if self.faults is not None:
            next_node = self._route_faulty(msg, node)
            if next_node is None:
                return
            if self._assign is not None:
                self._assign(self.topology.link(node, next_node), msg.nbytes, self.sim.now)
            if not wfq:
                self._launch(self.topology.link(node, next_node), node, next_node, msg)
                return
            queue = self._link_queue(node, next_node)
        else:
            memo = self._next_hop_cache
            pair = (node, dst)
            hit = None if memo is None else memo.get(pair)
            if hit is None:
                hit = self.router.next_hop(node, dst)
                if self._assign is not None:      # adaptive: never memoized
                    self._assign(self.topology.link(node, hit), msg.nbytes, self.sim.now)
                if wfq:
                    hit = self._link_queue(node, hit)
                if memo is not None:
                    memo[pair] = hit
            if not wfq:
                self._transmit(node, hit, msg)
                return
            queue = hit
        nbytes = msg.nbytes
        finish_tag = queue.finish_tag
        start = finish_tag.get(flow, 0.0)
        vtime = queue.vtime
        if vtime > start:
            start = vtime
        finish_tag[flow] = start + nbytes / self._flow_weight.get(flow, 1.0)
        heap = queue.heap
        if not heap and self.fast_path and queue.link.busy_until <= self.sim.now:
            if start > vtime:
                queue.vtime = start
            # The link is free: ``Link.transmit`` from now, inline.
            link = queue.link
            link.busy_until = busy = self.sim.now + nbytes / link._rate
            link.bytes_carried += nbytes
            link.messages_carried += 1
            key = queue.key
            self.sim.schedule_fast(busy + link.latency_ns, self._hop, (msg, key[1]))
            # The hop's accounting (:meth:`_record`), inline.
            stats = self._traffic
            stats.bytes_hops += nbytes
            stats.messages += 1
            per_link = stats.per_link
            per_link[key] = per_link.get(key, 0) + nbytes
            if flow is not None:
                stats = self._flow_traffic.get(flow)
                if stats is None:
                    stats = self._flow_traffic[flow] = TrafficStats()
                stats.bytes_hops += nbytes
                stats.messages += 1
                per_link = stats.per_link
                per_link[key] = per_link.get(key, 0) + nbytes
            return
        heappush(heap, (start, self._queue_seq, msg))
        self._queue_seq += 1
        if len(heap) > queue.depth_peak:
            queue.depth_peak = len(heap)
        if not queue.armed:
            self._serve(queue)

    def _route_faulty(self, msg: Message, node: NodeId) -> Optional[NodeId]:
        """Next node under armed faults, or None when a dead switch
        swallowed the chunk (the host timeout recovers it).  Routing
        re-resolves against the live failure state, and a partition
        surfaces loudly."""
        # Membership test against the topology's live internal set:
        # this runs on every forwarding hop of a chaos run, where the
        # copying failed_switches() accessor would allocate per hop.
        if node != msg.src and node in self.topology._failed_switches:
            self._lose(msg)
            return None
        try:
            return self.router.next_hop(node, msg.dst)
        except ValueError as exc:
            raise UnreachableError(
                f"no route {node} -> {msg.dst} for flow {msg.flow!r}: the "
                f"injected failures partitioned the network ({exc})"
            ) from exc

    def _link_queue(self, node: NodeId, next_node: NodeId) -> _LinkQueue:
        key = (node, next_node)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _LinkQueue(self.topology.link(node, next_node))
        return queue

    # ------------------------------------------------------------------
    # Link service
    # ------------------------------------------------------------------
    def _record(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        """Account one hop globally and to its flow (once per link hop;
        the WFQ hop and :meth:`_serve` run the same lines inline)."""
        nbytes = msg.nbytes
        key = (src, dst)
        stats = self._traffic
        stats.bytes_hops += nbytes
        stats.messages += 1
        per_link = stats.per_link
        per_link[key] = per_link.get(key, 0) + nbytes
        flow = msg.flow
        if flow is not None:
            stats = self._flow_traffic.get(flow)
            if stats is None:
                stats = self._flow_traffic[flow] = TrafficStats()
            stats.bytes_hops += nbytes
            stats.messages += 1
            per_link = stats.per_link
            per_link[key] = per_link.get(key, 0) + nbytes

    def _transmit(self, node: NodeId, next_node: NodeId, msg: Message) -> None:
        link = self.topology.link(node, next_node)
        arrival = link.transmit(msg.nbytes, self.sim.now)
        self._record(node, next_node, msg)
        self.sim.schedule_fast(arrival, self._hop, (msg, next_node))

    def _serve(self, queue: _LinkQueue) -> None:
        """Send ``queue``'s fairest waiting messages while its link is
        free, then re-arm for when it frees (priority 0: the link must
        free before same-instant arrivals).  The hop calls it when no
        re-arm is pending, and the re-arm event is this call; under
        armed faults each message goes out by :meth:`_launch`."""
        heap = queue.heap
        link = queue.link
        now = self.sim.now
        while heap and link.busy_until <= now:
            start, _seq, msg = heappop(heap)
            if start > queue.vtime:
                queue.vtime = start
            key = queue.key
            if self.faults is not None:
                self._launch(link, key[0], key[1], msg)
                continue
            # As the hop's bypass: transmit from now and account, inline.
            nbytes = msg.nbytes
            link.busy_until = busy = now + nbytes / link._rate
            link.bytes_carried += nbytes
            link.messages_carried += 1
            self.sim.schedule_fast(busy + link.latency_ns, self._hop, (msg, key[1]))
            stats = self._traffic
            stats.bytes_hops += nbytes
            stats.messages += 1
            per_link = stats.per_link
            per_link[key] = per_link.get(key, 0) + nbytes
            flow = msg.flow
            if flow is not None:
                stats = self._flow_traffic.get(flow)
                if stats is None:
                    stats = self._flow_traffic[flow] = TrafficStats()
                stats.bytes_hops += nbytes
                stats.messages += 1
                per_link = stats.per_link
                per_link[key] = per_link.get(key, 0) + nbytes
        if heap:
            queue.armed = True
            self.sim.schedule_fast(link.busy_until, self._serve, (queue,), 0)
        else:
            queue.armed = False

    # ------------------------------------------------------------------
    # Reliability (fault-injection runs only)
    # ------------------------------------------------------------------
    def _launch(self, link, node: NodeId, next_node: NodeId, msg: Message) -> None:
        """Serve one message on one link under armed faults.

        Down links carry nothing (the chunk is lost before
        serialization); lossy links serialize the chunk — the bytes
        were on the wire — then lose or duplicate it per the seeded
        per-message decision; slow links stretch serialization inside
        :meth:`Link.transmit`."""
        if link.failed:
            self._count_link(msg, self._traffic.link_drops, link)
            self._lose(msg)
            return
        fault = link.fault
        arrival = link.transmit(msg.nbytes, self.sim.now)
        self._record(node, next_node, msg)
        if fault is not None and fault.kind == "lossy":
            faults = self.faults
            if fault.loss_rate and faults.roll(link, "drop", fault.loss_rate):
                self._count_link(msg, self._traffic.link_drops, link)
                self._lose(msg)
                return
            if fault.duplicate_rate and faults.roll(
                link, "dup", fault.duplicate_rate
            ):
                self._count_link(msg, self._traffic.link_duplicates, link)
                self._count(msg, "duplicates")
                dup = Message(
                    msg.src, msg.dst, msg.nbytes, msg.tag, msg.payload,
                    msg.flow, ephemeral=True,
                )
                self.sim.schedule_fast(
                    arrival + link.latency_ns, self._hop, (dup, next_node)
                )
        self.sim.schedule_fast(arrival, self._hop, (msg, next_node))

    def _count_link(self, msg: Message, table: dict, link) -> None:
        """Per-link reliability attribution, mirroring :meth:`_lose`'s
        dead-flow guard so ``link_drops`` stays consistent with
        ``drops``."""
        if self._dead_flows and msg.flow in self._dead_flows:
            return
        key = link.key
        table[key] = table.get(key, 0) + 1

    def _count(self, msg: Message, counter: str) -> None:
        stats = self._traffic
        setattr(stats, counter, getattr(stats, counter) + 1)
        flow = msg.flow
        if flow is not None:
            stats = self._flow_traffic.get(flow)
            if stats is None:
                stats = self._flow_traffic[flow] = TrafficStats()
            setattr(stats, counter, getattr(stats, counter) + 1)

    def _lose(self, msg: Message) -> None:
        """A chunk vanished; arm the host's retransmission timeout."""
        if self._dead_flows and msg.flow in self._dead_flows:
            return
        self._count(msg, "drops")
        if msg.ephemeral:
            return      # a lost duplicate; the original recovers itself
        if msg.retries >= self.max_retransmits:
            raise UnreachableError(
                f"chunk {msg.src} -> {msg.dst} (flow {msg.flow!r}) lost "
                f"{msg.retries} retransmissions in a row; destination "
                "unreachable (persistent failure or partition)"
            )
        msg.retries += 1
        self.sim.schedule_fast(
            self.sim.now + self.retransmit_timeout_ns, self._retransmit, (msg,)
        )

    def _retransmit(self, msg: Message) -> None:
        if self._dead_flows and msg.flow in self._dead_flows:
            return
        self._count(msg, "retransmits")
        self._hop(msg, msg.src)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run to quiescence; returns the final simulation time (ns)."""
        self.sim.run(until=until)
        return self.sim.now

    @property
    def now(self) -> float:
        return self.sim.now

    def queue_depth_peaks(self) -> dict:
        """Provenance: ``{(src, dst): peak}`` high-water marks of the
        WFQ link queues (empty under FIFO arbitration, which never
        materializes queues)."""
        return {
            key: queue.depth_peak
            for key, queue in self._queues.items()
            if queue.depth_peak
        }

    def traffic_extra(self, n_hot: int = 3, flow: object = None) -> dict:
        """Congestion fields for ``CollectiveResult.extra``.

        Fault-injection runs additionally surface the per-flow
        reliability counters (drops / duplicates / retransmits), so
        every schedule's result reports what the chaos cost it."""
        stats = self.flow_stats(flow)
        out = {
            "max_link_bytes": stats.max_link_bytes,
            "hot_links": stats.hot_links(n_hot),
            "routing": self.router.name,
        }
        if self.faults is not None:
            out["drops"] = stats.drops
            out["duplicates"] = stats.duplicates
            out["retransmits"] = stats.retransmits
        return out
