"""Chunk-level network discrete-event simulator.

Messages travel hop by hop (store-and-forward) over the topology's
links; each hop is an event, so link contention, pipelining across
chunks, and in-switch aggregation hooks all compose naturally.  Traffic
is accounted as bytes carried per link — summing over links gives the
paper's "total number of bytes that traversed the network" (Fig. 15
right), and the per-link breakdown (:meth:`TrafficStats.hot_links`)
shows where a routing policy piled the load.

Next hops come from a :class:`repro.network.routing.Router` policy —
deterministic, ECMP, or congestion-adaptive — consulted at every hop,
over any :class:`repro.network.topology.Topology`.

In-switch processing is modeled through *interceptors*: a callback
registered at a switch node sees every message addressed through it and
may consume the message (aggregate it into block state) and/or emit new
ones — exactly the capability the authors added to SST.

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

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.network.faults import FaultInjector, FaultSchedule
from repro.network.routing import Router, build_router
from repro.network.topology import NodeId, Topology
from repro.network.windows import HopRows
from repro.pspin.engine import Simulator


class UnreachableError(RuntimeError):
    """A message exhausted its retransmission budget or lost every
    path to its destination (network partitioned)."""


@dataclass(slots=True)
class Message:
    """One chunk on the wire."""

    src: NodeId
    dst: NodeId
    nbytes: float
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
    #: Sharded-engine message id (0 = unassigned).  The coordinator
    #: assigns one the first time a message crosses a shard boundary;
    #: it keys the parked original (payload, tag, callbacks stay in the
    #: coordinator process) while the workers move only numeric
    #: metadata, and doubles as the deterministic tie-break for
    #: same-timestamp cross-shard arrivals.
    mid: int = 0


@dataclass
class TrafficStats:
    """Aggregate and per-link traffic accounting for one run."""

    bytes_hops: float = 0.0          # sum over links of bytes carried
    messages: int = 0
    per_link: dict = field(default_factory=dict)   # (src, dst) -> bytes
    #: Reliability counters (fault-injection runs): messages lost on a
    #: link, spuriously duplicated, and end-to-end retransmissions.
    drops: int = 0
    duplicates: int = 0
    retransmits: int = 0
    #: Per-link reliability attribution (fault-injection runs):
    #: (src, dst) -> count.  Dead-switch swallows have no link and stay
    #: in the run-level ``drops`` only, so ``sum(link_drops.values())
    #: <= drops``.  Sharded fault runs merge these from worker deltas
    #: (integer counts keyed per link, so the merge is order-free).
    link_drops: dict = field(default_factory=dict)
    link_duplicates: dict = field(default_factory=dict)

    @property
    def gib(self) -> float:
        return self.bytes_hops / (1024**3)

    @property
    def max_link_bytes(self) -> float:
        """Bytes carried by the most loaded link (the congestion metric
        adaptive routing minimizes)."""
        return max(self.per_link.values(), default=0.0)

    def hot_links(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` most loaded links as ("src->dst", bytes), hottest
        first (ties broken by link name for determinism)."""
        ranked = sorted(self.per_link.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(f"{src}->{dst}", nbytes) for (src, dst), nbytes in ranked[:n]]

    def record(self, src: NodeId, dst: NodeId, nbytes: float) -> None:
        self.bytes_hops += nbytes
        self.messages += 1
        key = (src, dst)
        self.per_link[key] = self.per_link.get(key, 0.0) + nbytes


#: An interceptor sees (sim, message, arrival_time) when a message
#: reaches the node it is registered at (before further forwarding) and
#: returns True to consume the message (stop forwarding).
Interceptor = Callable[["NetworkSimulator", Message, float], bool]


class _LinkQueue:
    """Per-link start-time-fair queue (WFQ mode only).

    Packets that find the link busy are queued with a start tag
    ``max(virtual_time, last finish tag of their flow)``; the link
    serves the smallest start tag first (ties by enqueue order).  The
    finish tag advances by ``nbytes / weight``, so a flow with weight w
    gets ~w times the service of a weight-1 competitor while both
    contend.  A lone flow's tags are monotone in enqueue order — FIFO.
    """

    __slots__ = (
        "vtime", "finish_tag", "heap", "drain_scheduled", "link", "depth_peak"
    )

    def __init__(self, link) -> None:
        self.vtime = 0.0
        self.finish_tag: dict = {}
        self.heap: list = []          # (start_tag, seq, msg, node)
        self.drain_scheduled = False
        self.link = link              # cached Link (stable per key)
        #: Provenance: most messages ever waiting at once (counted after
        #: each push, so a transient lone occupant registers as 1).  The
        #: uncontended fast-path bypass never pushes, so under
        #: ``REPRO_FASTPATH`` only genuinely contended instants count —
        #: consistently so across sequential and sharded engines.
        self.depth_peak = 0

    def push(self, msg: Message, node: NodeId, weight: float, seq: int) -> None:
        start = max(self.vtime, self.finish_tag.get(msg.flow, 0.0))
        self.finish_tag[msg.flow] = start + msg.nbytes / max(weight, 1e-9)
        heapq.heappush(self.heap, (start, seq, msg, node))
        if len(self.heap) > self.depth_peak:
            self.depth_peak = len(self.heap)

    def pop(self) -> tuple[Message, NodeId]:
        start, _seq, msg, node = heapq.heappop(self.heap)
        self.vtime = max(self.vtime, start)
        return msg, node


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

    #: Injector class :meth:`arm_faults` instantiates.  The sharded
    #: engine substitutes a coordinator-aware subclass that mirrors
    #: armed specs into the worker shards and mutes the coordinator's
    #: redundant topology broadcasts.
    _fault_injector_cls = FaultInjector
    #: Whether hops may run in FIFO windows (:mod:`repro.network.windows`);
    #: the sharded engine's simulators divert hops themselves.
    _windowed = True

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
        self.sim = sim if sim is not None else Simulator()
        self.arbitration = arbitration
        #: Structural fast paths (next-hop memoization, uncontended WFQ
        #: bypass, burst sends) — identical timing, fewer Python ops.
        #: ``REPRO_FASTPATH=0`` disables them so the benchmark harness
        #: can measure the per-event baseline.
        self.fast_path = fast_path_env_enabled()
        self._next_hop_cache = self._fresh_memo()
        self._traffic = TrafficStats()
        self._flow_traffic: dict[object, TrafficStats] = {}
        self._flow_weight: dict[object, float] = {}
        self._interceptors: dict[NodeId, Interceptor] = {}
        self._deliver_cb: dict[tuple, Callable[[Message, float], None]] = {}
        #: flow -> nodes it registered deliver callbacks at, so removing
        #: a finished flow touches only its own registrations.
        self._flow_nodes: dict[object, set] = {}
        self._queues: dict[tuple, _LinkQueue] = {}
        self._queue_seq = 0
        #: Per-switch store-and-forward processing overhead (ns) applied
        #: when an interceptor re-emits; plain forwarding relies on link
        #: latency alone.
        self.switch_overhead_ns = 0.0
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
        # leave the memo stale.  The sharded engine extends this hook
        # to fan mutations out to worker shards.
        topology.add_change_listener(self._topology_changed)
        #: Hop rows (:class:`~repro.network.windows.HopRows`), attached
        #: to the engine as its row source under FIFO arbitration with a
        #: pure router.
        self._rows: Optional[HopRows] = None
        if (
            self._windowed and arbitration == "fifo" and self.fast_path
            and self.router.cacheable and self.sim._rows is None
        ):
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

    def intercept(self, node: NodeId, interceptor: Interceptor) -> None:
        """Install an in-network processing hook at a switch node."""
        self._settle()
        self._interceptors[node] = interceptor

    def set_flow_weight(self, flow: object, weight: float) -> None:
        """QoS weight used by WFQ link arbitration (default 1.0)."""
        if weight <= 0:
            raise ValueError("flow weight must be positive")
        self._settle()
        self._flow_weight[flow] = float(weight)

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
        self._settle()
        if self.faults is None:
            self.faults = self._fault_injector_cls(self, seed=seed or 0)
            self.fast_path = False
            self._next_hop_cache = None
        elif seed is not None:
            self.faults.seed = seed
            from repro.utils.rngtools import stable_hash

            self.faults._salt = stable_hash("fault-injector", seed)
        if schedule is not None:
            self.faults.schedule(FaultSchedule.from_any(schedule))
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
        """Inject a message at its source at absolute time ``at``."""
        now = self.sim.now
        self._schedule_hop(at if at > now else now, msg, msg.src)

    def _schedule_hop(self, time: float, msg: Message, node: NodeId) -> None:
        """Schedule ``msg`` to arrive (or start) at ``node`` at ``time``.

        The single seam every arrival-scheduling site funnels through.
        The sharded engine overrides it: arrivals at nodes owned by
        another shard are diverted into cross-shard event batches at
        *scheduling* time — interception at execution time would be too
        late to meet the conservative lookahead deadline.
        """
        self.sim.schedule_fast(time, self._hop, (msg, node))

    def send_burst(self, msgs: list[Message], at: float = 0.0) -> None:
        """Inject a burst of messages at one time under ONE event.

        Equivalent to ``send`` per message (consecutive same-instant
        events with no interleaving process back-to-back in order), but
        costs a single heap event — collectives use it for the per-
        segment sub-chunk trains they issue at the same instant.
        """
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
        now = self.sim.now
        if self._dead_flows and msg.flow in self._dead_flows:
            return  # collective was abandoned/replanned; chunk discarded
        if self._interceptors and (node != msg.src or node in self._interceptors):
            # Arrived at an intermediate or terminal node.
            interceptor = self._interceptors.get(node)
            if interceptor is not None and node != msg.dst:
                if interceptor(self, msg, now):
                    return  # consumed by in-network processing
        if node == msg.dst:
            if self.faults is not None:
                # The chunk got through; a fresh loss later (e.g. of a
                # duplicate) starts a fresh retransmission budget.
                msg.retries = 0
            cb = self._deliver_cb.get((node, msg.flow))
            if cb is None and msg.flow is not None:
                cb = self._deliver_cb.get((node, None))
            if cb is not None:
                cb(msg, now)
            return
        if self.faults is not None:
            self._hop_faulty(msg, node)
            return
        cache = self._next_hop_cache
        if cache is not None:
            key = (node, msg.dst)
            next_node = cache.get(key)
            if next_node is None:
                next_node = cache[key] = self.router.next_hop(node, msg.dst)
        else:
            next_node = self.router.next_hop(node, msg.dst)
        if self.arbitration == "wfq":
            self._enqueue(node, next_node, msg)
        else:
            self._transmit(node, next_node, msg)

    def _hop_faulty(self, msg: Message, node: NodeId) -> None:
        """Forwarding leg under armed faults: dead switches swallow
        chunks (host timeout recovers them), routing re-resolves against
        the live failure state, and a partition surfaces loudly."""
        # Membership test against the topology's live internal set:
        # this runs on every forwarding hop of a chaos run, where the
        # copying failed_switches() accessor would allocate per hop.
        if node != msg.src and node in self.topology._failed_switches:
            self._lose(msg)
            return
        try:
            next_node = self.router.next_hop(node, msg.dst)
        except ValueError as exc:
            raise UnreachableError(
                f"no route {node} -> {msg.dst} for flow {msg.flow!r}: the "
                f"injected failures partitioned the network ({exc})"
            ) from exc
        if self.arbitration == "wfq":
            self._enqueue(node, next_node, msg)
        else:
            self._transmit(node, next_node, msg)

    # ------------------------------------------------------------------
    # Link service
    # ------------------------------------------------------------------
    def _record(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        # Inlined TrafficStats.record x2: this runs once per link hop.
        nbytes = msg.nbytes
        key = (src, dst)
        stats = self._traffic
        stats.bytes_hops += nbytes
        stats.messages += 1
        per_link = stats.per_link
        per_link[key] = per_link.get(key, 0.0) + nbytes
        flow = msg.flow
        if flow is not None:
            stats = self._flow_traffic.get(flow)
            if stats is None:
                stats = self._flow_traffic[flow] = TrafficStats()
            stats.bytes_hops += nbytes
            stats.messages += 1
            per_link = stats.per_link
            per_link[key] = per_link.get(key, 0.0) + nbytes

    def _transmit(self, node: NodeId, next_node: NodeId, msg: Message) -> None:
        link = self.topology.link(node, next_node)
        if self.faults is not None:
            self._launch(link, node, next_node, msg)
            return
        arrival = link.transmit(msg.nbytes, self.sim.now)
        self._record(node, next_node, msg)
        self._schedule_hop(arrival, msg, next_node)

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
                    msg.flow, ephemeral=True, mid=msg.mid,
                )
                self._schedule_hop(arrival + link.latency_ns, dup, next_node)
        self._schedule_hop(arrival, msg, next_node)

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

    def _enqueue(self, node: NodeId, next_node: NodeId, msg: Message) -> None:
        key = (node, next_node)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _LinkQueue(self.topology.link(node, next_node))
        flow = msg.flow
        weight = self._flow_weight.get(flow, 1.0)
        link = queue.link
        now = self.sim.now
        if self.fast_path and not queue.heap and link.busy_until <= now:
            # Uncontended instant: serve immediately with the same WFQ
            # tag updates a push+pop pair would apply (exact bypass).
            finish_tag = queue.finish_tag
            start = finish_tag.get(flow, 0.0)
            vtime = queue.vtime
            if vtime > start:
                start = vtime
            finish_tag[flow] = start + msg.nbytes / max(weight, 1e-9)
            if start > vtime:
                queue.vtime = start
            arrival = link.transmit(msg.nbytes, now)
            self._record(node, next_node, msg)
            self._schedule_hop(arrival, msg, next_node)
            return
        queue.push(msg, next_node, weight, self._queue_seq)
        self._queue_seq += 1
        self._drain(key, queue)

    def _drain(self, key: tuple, queue: "_LinkQueue | None" = None) -> None:
        """Serve the fairest queued message if the link is free; else
        (re)arm a drain event for when it frees."""
        if queue is None:
            queue = self._queues[key]
        link = queue.link
        now = self.sim.now
        faulty = self.faults is not None
        while queue.heap and link.busy_until <= now:
            msg, next_node = queue.pop()
            if faulty:
                self._launch(link, key[0], next_node, msg)
                continue
            arrival = link.transmit(msg.nbytes, now)
            self._record(key[0], next_node, msg)
            self._schedule_hop(arrival, msg, next_node)
        if queue.heap and not queue.drain_scheduled:
            queue.drain_scheduled = True
            # priority 0: the link must free before same-instant arrivals.
            self.sim.schedule_fast(
                link.busy_until, self._rearm, (key, queue), priority=0
            )

    def _rearm(self, key: tuple, queue: "_LinkQueue") -> None:
        queue.drain_scheduled = False
        self._drain(key, queue)

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
        materializes queues).  Peaks are integer maxima, so the sharded
        engine's override max-merges worker peaks order-independently
        — bitwise-equal to a sequential run."""
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
