"""Full PsPIN switch assembly and event loop glue.

The switch wires together the allreduce table, the packet scheduler, the
clusters and the memories, and drives handler execution through the
discrete-event engine.  The table is the behavioral parser of paper
Sec. 3, which "decides if the packet must be processed by a processing
unit (or sent directly to the routing tables unit), and which function
must be executed on the packet".  Its callers (:mod:`repro.core.allreduce`,
:mod:`repro.sparse.allreduce`) match on the allreduce id only, so the
table maps an id to a handler name, and a packet whose id has no entry
bypasses the processing unit (Sec. 3 fn. 1).

Occupancy is one record per memory: the L2 packet region is the input
buffer (Fig. 7 "Inp. Buff."), and the L1 regions and the telemetry's
working-memory gauge keep peaks.

Aggregation *logic* (what a handler does with a packet and what
it costs) is supplied by handler objects from ``repro.core`` (dense) and
``repro.sparse`` — the switch only provides the substrate, mirroring how
sPIN separates the NIC/switch architecture from user handlers.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.pspin.cluster import Cluster
from repro.pspin.costs import CostModel
from repro.pspin.engine import Simulator
from repro.pspin.memory import MemoryAccounting
from repro.pspin.packets import EgressRecord, SwitchPacket
from repro.pspin.scheduler import FCFSScheduler, HierarchicalFCFSScheduler
from repro.pspin.telemetry import Telemetry


class WorkingMemoryStall(Exception):
    """The cluster's L1 cannot admit a new block right now.

    The paper bounds in-flight blocks at the *hosts* ("each host can
    have a number of in-flight blocks not larger than the number of
    aggregation buffers assigned to that allreduce", Sec. 4.3).  The
    behavioral switch enforces the same bound at the admission point:
    a handler raises this for a packet that would start a new block
    while L1 headroom is below the design's worst case, and the
    dispatcher re-queues it once memory frees — back-pressure, not
    failure.
    """


@dataclass
class SwitchConfig:
    """Dimensions and policies of one PsPIN switch.

    Defaults follow the paper's target design point (Sec. 3): 64 clusters
    of 8 HPUs within a 180 mm^2 processing-unit area budget, 64 ports at
    100 Gbps.  The paper's RTL simulations use 4 clusters and scale
    linearly ("the clusters are organized in a shared-nothing
    configuration"); set ``n_clusters=4`` and use
    ``repro.core.allreduce.scale_bandwidth`` to do the same.
    """

    n_clusters: int = 64
    cores_per_cluster: int = 8
    n_ports: int = 64
    port_gbps: float = 100.0
    scheduler: str = "hierarchical"  # "hierarchical" | "fcfs"
    subset_size: Optional[int] = None  # S; defaults to cores_per_cluster
    cost_model: CostModel = field(default_factory=CostModel)
    l1_bytes: int = 1024 * 1024
    drop_on_full: bool = False

    @property
    def n_cores(self) -> int:
        return self.n_clusters * self.cores_per_cluster

    @property
    def line_rate_bytes_per_cycle(self) -> float:
        """Aggregate ingress line rate in bytes/cycle at the 1 GHz clock."""
        bits_per_second = self.n_ports * self.port_gbps * 1e9
        return bits_per_second / 8.0 / (self.cost_model.clock_ghz * 1e9)

    def packet_interarrival_cycles(self, packet_bytes: int) -> float:
        """delta: mean cycles between packet arrivals at full line rate."""
        return packet_bytes / self.line_rate_bytes_per_cycle


@dataclass(slots=True)
class HandlerContext:
    """Everything a handler may consult while processing one packet."""

    switch: "PsPINSwitch"
    packet: SwitchPacket
    cluster: Cluster
    hpu_id: int
    dispatch_time: float   # when the core picked the packet up
    start_time: float      # dispatch_time + i-cache fill penalty (if any)

    @property
    def costs(self) -> CostModel:
        return self.switch.config.cost_model


@dataclass(slots=True)
class HandlerResult:
    """What one handler invocation did.

    ``finish_time`` is absolute (cycles); the HPU is busy from dispatch
    to finish, *including* any cycles spent spinning on a critical
    section (PsPIN handlers are never suspended, Sec. 6.1).

    ``continuation``, if set, is invoked when ``finish_time`` is reached
    and may return a further :class:`HandlerResult` that *extends* the
    same handler on the same core.  Tree aggregation needs this: whether
    a handler climbs the merge tree depends on which sibling buffer
    filled *last*, which is only known at its own finish time, not at
    dispatch time (Sec. 6.3: "the computation on the next level of the
    tree is carried only if a core finds available data in both
    buffers").
    """

    finish_time: float
    outputs: list[SwitchPacket] = field(default_factory=list)
    completed_block: Optional[tuple[int, int]] = None
    wait_cycles: float = 0.0
    continuation: Optional[Callable[[float], Optional["HandlerResult"]]] = None


class Handler(Protocol):
    """Aggregation-handler interface (the sPIN 'packet handler')."""

    name: str

    def process(self, ctx: HandlerContext) -> HandlerResult: ...


class PsPINSwitch:
    """Behavioral PsPIN switch: inject packets, run, read telemetry.

    Typical use::

        sw = PsPINSwitch(SwitchConfig(n_clusters=4))
        sw.register_handler(MultiBufferHandler(config, 1))
        sw.install_allreduce(1, "flare-multi1")
        for t, pkt in arrivals:
            sw.inject(pkt, at=t)
        makespan = sw.run()
    """

    #: Core-cycles burned by a handler that finds working memory full
    #: (roughly one aggregation time: the failed admission check plus
    #: back-off, Sec. 4.3).  Retries are *event-driven* — the packet
    #: re-queues and is woken by the next working-memory release — so a
    #: saturated run costs O(releases) events, not O(retries).
    WORKING_MEMORY_RETRY_CYCLES = 1024.0

    def __init__(self, config: SwitchConfig) -> None:
        if config.subset_size is None:
            config.subset_size = config.cores_per_cluster
        self.config = config
        self.sim = Simulator()
        self.clusters = [
            Cluster(i, config.cores_per_cluster, config.l1_bytes)
            for i in range(config.n_clusters)
        ]
        # A weak reference: the L1 regions must not keep their switch
        # alive (a per-call switch is then freed by refcount on return).
        on_release = weakref.WeakMethod(self._on_working_memory_release)
        for cluster in self.clusters:
            cluster.l1.release_listener = lambda t: on_release()(t)
        self._hpus = [hpu for cl in self.clusters for hpu in cl.hpus]
        if config.scheduler == "hierarchical":
            self.scheduler = HierarchicalFCFSScheduler(self._hpus, config.subset_size)
        elif config.scheduler == "fcfs":
            self.scheduler = FCFSScheduler(self._hpus)
        else:
            raise ValueError(f"unknown scheduler {config.scheduler!r}")
        #: Allreduce id -> handler name (the parser's match table).
        self.allreduces: dict[int, str] = {}
        self.memories = MemoryAccounting()
        self.telemetry = Telemetry()
        self._handlers: dict[str, Handler] = {}
        self._egress: list[tuple[float, SwitchPacket]] = []
        #: Fast-path commits not yet expanded into ``_egress``: an
        #: :class:`EgressRecord`, or the sparse kernel's flat record.
        self._egress_records: list[EgressRecord] = []
        self._first_arrival: Optional[float] = None
        self._last_completion: float = 0.0
        #: Packets held at the ingress by back-pressure, FIFO.
        self._admission_queue: deque[SwitchPacket] = deque()
        #: Queued packets waiting for a working-memory release wakeup.
        self._stalled_waiters = 0
        #: Earliest pending stall-wakeup event time (None = none armed).
        self._stall_wakeup_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def register_handler(self, handler: Handler) -> None:
        """Install a handler image (control-plane operation, Sec. 4)."""
        self._handlers[handler.name] = handler

    def handler(self, name: str) -> Handler:
        return self._handlers[name]

    def install_allreduce(self, allreduce_id: int, handler: str) -> None:
        """Send packets of ``allreduce_id`` to the handler named ``handler``."""
        self.allreduces[allreduce_id] = handler

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def inject(self, packet: SwitchPacket, at: float) -> None:
        """Schedule a packet arrival at absolute cycle ``at``."""
        self.sim.schedule_fast(at, self._on_arrival, (packet,))

    def inject_train(self, train) -> bool:
        """Inject a :class:`~repro.pspin.train.PacketTrain`.

        Attempts the analytic fast path first; if the train cannot be
        reproduced exactly (contention, back-pressure, exotic configs),
        falls back transparently to per-packet arrival events.  Returns
        True iff the fast path handled the train.
        """
        from repro.pspin.train import fast_path_env_enabled, try_run_train

        if fast_path_env_enabled() and try_run_train(self, train):
            return True
        schedule = self.sim.schedule_fast
        on_arrival = self._on_arrival
        for t, pkt in zip(train.times.tolist(), train.packets()):
            schedule(t, on_arrival, (pkt,))
        return False

    def _on_arrival(self, packet: SwitchPacket) -> None:
        now = self.sim.now
        if self._first_arrival is None:
            self._first_arrival = now
        handler_name = self.allreduces.get(packet.allreduce_id)
        if handler_name is None:
            # Bypass: straight to routing, no processing-unit involvement.
            packet.arrival_time = now
            self.telemetry.packets_in.add(1)
            self.telemetry.bytes_in.add(packet.wire_bytes)
            self._emit(now, packet)
            return
        packet._handler_name = handler_name
        if not self.memories.l2_packet.allocate(packet.wire_bytes):
            # Input buffers full.  The paper leaves the reaction to the
            # surrounding network ("the packet is dropped or congestion
            # is notified before filling the buffer", Sec. 3 fn. 2):
            # dropping exercises the retransmission path; otherwise we
            # model credit-based back-pressure: the packet waits at the
            # ingress (upstream link holds it) and is admitted FIFO as
            # soon as a buffer frees — one event per admission, so a
            # saturated run costs O(packets), not O(packets x retries).
            # Ingress wire counters tick only at admission (or drop),
            # so they stay monotone; a deferred packet is counted once,
            # when it actually enters the processing unit.
            if self.config.drop_on_full:
                self.telemetry.packets_in.add(1)
                self.telemetry.bytes_in.add(packet.wire_bytes)
                self.telemetry.dropped_packets.add(1)
            else:
                self.telemetry.deferred_arrivals.add(1)
                self._admission_queue.append(packet)
            return
        self._admit(packet, now)

    def _admit(self, packet: SwitchPacket, now: float) -> None:
        """Packet enters the processing unit (L2 space already held)."""
        packet.arrival_time = now
        self.telemetry.packets_in.add(1)
        self.telemetry.bytes_in.add(packet.wire_bytes)
        self.scheduler.enqueue(packet)
        self._dispatch()

    def _dispatch(self) -> None:
        now = self.sim.now
        for hpu, packet in self.scheduler.dispatch(now):
            cluster = self.clusters[hpu.cluster_id]
            handler_name: str = packet._handler_name  # type: ignore[attr-defined]
            handler = self._handlers[handler_name]
            start = now
            if not cluster.icache_warm(handler_name):
                cluster.icache_load(handler_name)
                start += self.config.cost_model.icache_fill_cycles
                self.telemetry.icache_fills.add(1)
            ctx = HandlerContext(
                switch=self,
                packet=packet,
                cluster=cluster,
                hpu_id=hpu.hpu_id,
                dispatch_time=now,
                start_time=start,
            )
            try:
                result = handler.process(ctx)
            except WorkingMemoryStall:
                # Working memory cannot admit this block yet: the
                # packet stays in its input buffer and re-queues; the
                # core burns the failed check plus back-off (roughly
                # one aggregation time) and frees.  This is the
                # switch-side face of the Sec. 4.3 in-flight block
                # bound.  No retry event is scheduled — the next
                # working-memory release wakes the queue (see
                # :meth:`_on_working_memory_release`), so sustained
                # pressure costs O(releases) events, not O(retries).
                hpu.occupy(now, now + self.WORKING_MEMORY_RETRY_CYCLES)
                self.telemetry.stalled_admissions.add(1)
                self.scheduler.enqueue(packet)
                self._stalled_waiters += 1
                continue
            if result.finish_time < start:
                raise RuntimeError(
                    f"handler {handler_name} finished before it started "
                    f"({result.finish_time} < {start})"
                )
            hpu.occupy(now, result.finish_time)
            hpu.pending_decision = result.continuation is not None
            self.telemetry.handler_invocations.add(1)
            self.telemetry.busy_cycles.add(result.finish_time - now)
            self.telemetry.contention_wait_cycles.add(result.wait_cycles)
            self.sim.schedule_fast(
                result.finish_time,
                self._on_completion,
                (hpu, packet, result, False),
                priority=0,
            )

    def _on_working_memory_release(self, release_time: float) -> None:
        """Working memory freed (possibly at a *future* simulated time —
        handlers book releases eagerly at completion timestamps): arm a
        wakeup for any packets stalled on admission.

        One priority-0 event per distinct release instant at most; the
        wakeup re-runs the dispatcher, which either admits the stalled
        packets or re-marks them as waiting.
        """
        if not self._stalled_waiters:
            return
        at = release_time if release_time > self.sim.now else self.sim.now
        if self._stall_wakeup_at is not None and self._stall_wakeup_at <= at:
            return  # an earlier (or equal) wakeup is already armed
        self._stall_wakeup_at = at
        self.sim.schedule_fast(at, self._stall_wakeup, (at,), priority=0)

    def _stall_wakeup(self, armed_at: float) -> None:
        if self._stall_wakeup_at == armed_at:
            self._stall_wakeup_at = None
        # Dispatch re-raises the waiting flag if admissions still stall.
        self._stalled_waiters = 0
        self._dispatch()

    def _on_completion(
        self,
        hpu,
        packet: SwitchPacket,
        result: HandlerResult,
        buffer_released: bool,
    ) -> None:
        now = self.sim.now
        if not buffer_released:
            # The input buffer is held for queueing + service time of the
            # *packet handler*; tree-merge extensions operate on working
            # memory only.
            self.memories.l2_packet.release(packet.wire_bytes, now)
        if result.completed_block is not None:
            self.scheduler.release_block(result.completed_block)
        for out in result.outputs:
            self._emit(now, out)
        extended = False
        if result.continuation is not None:
            # The continuation must run before anything else can claim
            # this core: a tree merge extends the same HPU (dispatchers
            # were held off by ``pending_decision`` until this point).
            # A result without one left the flag clear when it was
            # booked; the core may since have taken a new packet at this
            # same instant, whose flag must stand.
            hpu.pending_decision = False
            next_result = result.continuation(now)
            if next_result is not None:
                hpu.occupy(now, next_result.finish_time)
                hpu.pending_decision = next_result.continuation is not None
                self.telemetry.busy_cycles.add(next_result.finish_time - now)
                self.telemetry.contention_wait_cycles.add(next_result.wait_cycles)
                self.sim.schedule_fast(
                    next_result.finish_time,
                    self._on_completion,
                    (hpu, packet, next_result, True),
                    priority=0,
                )
                extended = True
        if not buffer_released:
            # Freed space admits back-pressured packets (FIFO); safe now
            # that the core's extension (if any) is booked.
            while self._admission_queue:
                head = self._admission_queue[0]
                if head.wire_bytes > self.memories.l2_packet.free_bytes:
                    break
                self._admission_queue.popleft()
                self.memories.l2_packet.allocate(head.wire_bytes)
                self._admit(head, now)
        if not extended:
            self._last_completion = now
        self._dispatch()

    def _emit(self, time: float, packet: SwitchPacket) -> None:
        self.telemetry.packets_out.add(1)
        self.telemetry.bytes_out.add(packet.wire_bytes)
        # Through the property: pending fast-path records expand first,
        # so this packet lands after them.
        self.egress.append((time, packet))

    def _commit_egress(self, record) -> None:
        """Append a fast-path commit's egress record; its ``expand()``
        builds the ``(time, packet)`` entries on first read."""
        self._egress_records.append(record)

    def sole_egress_record(self):
        """The unexpanded fast-path record that is this switch's whole
        egress, else ``None``: a driver can read its arrays without
        building a packet."""
        if not self._egress and len(self._egress_records) == 1:
            return self._egress_records[0]
        return None

    @property
    def egress(self) -> list[tuple[float, SwitchPacket]]:
        """Emitted packets as ``(time, packet)``, in emission order."""
        if self._egress_records:
            for record in self._egress_records:
                self._egress.extend(record.expand())
            self._egress_records.clear()
        return self._egress

    def block_outputs(self) -> dict:
        """Block id -> payload of the block's first egress packet,
        read without expanding dense fast-path records."""
        out: dict = {}
        for _t, pkt in self._egress:
            out.setdefault(pkt.block_id, pkt.payload)
        for record in self._egress_records:
            for _t, block_id in record.entries:
                out.setdefault(block_id, record.payloads[block_id])
        return out

    # ------------------------------------------------------------------
    # Execution / reporting
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run to quiescence (or ``until``); returns the makespan in cycles.

        Makespan is measured from the first packet arrival to the last
        handler completion, which is what the paper's bandwidth numbers
        (payload volume / time) divide by.
        """
        self.sim.run(until=until)
        if until is None and self._stalled_waiters and self.scheduler.queued():
            raise RuntimeError(
                f"working-memory deadlock: {self.scheduler.queued()} packets "
                "stalled on admission but no release is pending to wake them"
            )
        if self._first_arrival is None:
            return 0.0
        return max(self._last_completion - self._first_arrival, 0.0)
