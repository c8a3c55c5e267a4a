"""Sharded parallel network simulation: conservative window PDES.

This is the execution half of the sharded engine (planning lives in
``repro.network.shard``, engine selection in ``repro.pspin.pdes``).
The fabric graph is partitioned into shards pinned to forked worker
processes; the coordinator process keeps the driver loop, the
collectives' callbacks, and every ``Message`` object, while workers
simulate transport through their region of the fabric.

Design in six invariants
------------------------
1. **Windows equal lookahead.**  Each barrier grants everyone the
   window ``[T0, T0 + L)`` where ``T0`` is the global minimum next
   event and ``L`` the minimum link latency.  A message processed at
   ``t >= T0`` arrives at its next node at ``t + serialization + L >=
   T0 + L``, so every event strictly inside the window is safe — and,
   because *every* link's latency is at least ``L``, a message makes at
   most one hop per window.  That single-hop property is what lets a
   FIFO worker with no fault schedule (``_VectorWorker``) execute a
   whole window as one numpy batch (sort arrivals per link, chain the
   serializations) instead of running an event loop.  The sequential
   simulator runs the same windows with the same kernel
   (``repro.network.windows``).
   One exception: a callback at a *switch* (an aggregation tree) may
   relay from that switch at its delivery instant, with no link in
   between.  A worker's window therefore ends just past its first
   switch delivery, and no grant passes a switch delivery the
   coordinator has not run yet.

2. **Scheduling-time diversion.**  ``NetworkSimulator._schedule_hop``
   is the single seam through which every arrival is scheduled.  The
   coordinator's override diverts arrivals at worker-owned nodes into
   struct-of-arrays batches (columns: time, mid, node, src, dst,
   nbytes, flow) the moment they are *scheduled* — diverting at
   execution time would already have missed the lookahead deadline.

3. **Messages never leave the coordinator.**  A message crossing into
   a worker region is *parked* under a fresh ``mid``; only numeric
   metadata crosses the pipe.  Workers route/serialize by metadata and
   bounce two things back: onward crossings, and *deliveries* at nodes
   with registered callbacks — the coordinator unparks the original
   (payload, tag and all) and runs the callback at the exact bounced
   timestamp, inside its own copy of the same window.  Worker-to-worker
   crossings hub-relay through the coordinator with the next grant;
   the lookahead guarantees they are never late.

4. **Workers run a window before the coordinator does.**  Collectives
   read per-flow traffic mid-run (``finished()`` snapshots flow
   stats), so each barrier first collects the workers' per-flow stat
   deltas for the window, then lets the coordinator execute its local
   copy — every hop of a flow happens-before the delivery callback
   that might read it.  Global per-link tables are merged lazily at
   quiescence from nonzero numpy deltas.

5. **Faults replay inside their owning shard.**  ``LinkFault`` rolls
   are seeded on the link's monotone message counter, so they are a
   pure function of per-link event order — deterministic wherever the
   link executes.  A run with an armed fault schedule forks per-event
   workers (``_EventWorker``, whatever the arbitration): each is a real
   ``NetworkSimulator`` that arms its own injector over its private
   topology copy from the coordinator's armed spec list, fires
   apply/repair transitions at the exact simulated instants, and rolls
   loss/duplication locally with the oracle's own ``Link.transmit``,
   ``_lose`` and injector code.  End-to-end retransmissions are handed to
   the shard owning the source host through the regular crossing
   batches (an extra ``meta`` column carries the retry count,
   duplicate flag, and retransmit-event flag).  Only the genuinely
   non-replayable cases recall the shards to the sequential engine:
   interceptors, mid-run arming, retransmit timeouts shorter than the
   lookahead, and outage schedules with live recovery listeners (their
   reactions mutate cross-shard state at window granularity).

6. **The engine supervises its own workers.**  Barrier receives poll
   with a heartbeat (``REPRO_WORKER_TIMEOUT`` seconds, default 30)
   instead of blocking forever.  Each window's reply carries the
   worker's post-window in-flight state (pending arrivals, WFQ queue
   contents, link-counter deltas), which the coordinator folds into a
   per-shard mirror — windows are natural checkpoint boundaries.  When
   a worker dies or wedges, surviving shards' mirrors are current
   through the completed window, the dead shard is restored from its
   last completed window plus the undelivered grant, and the run
   continues sequentially with identical results, recording a
   degradation event instead of hanging.

Determinism: batches are sorted by ``(time, mid)`` before scheduling
(mid is the coordinator-assigned creation order), worker replies are
merged in shard order, and the spine hash is process-stable — same
inputs, same event order, every run.  Serialization chains replicate
``Link.transmit``'s float operations exactly, so delivery timestamps
are bit-identical to the sequential engine's.
"""

from __future__ import annotations

import heapq
import math
import os
import time as _walltime
import traceback
import warnings
from multiprocessing import get_context

import numpy as np

from repro.network.faults import FaultInjector
from repro.network.routing import Router
from repro.network.shard import ShardPlan
from repro.network.simulator import (
    Message, NetworkSimulator, UnreachableError, _LinkQueue,
)
from repro.network.topology import NodeId, Topology
from repro.network.windows import VectorRoutes, chain_links
from repro.pspin.engine import Simulator

_INF = float("inf")

# Crossing-batch column order (struct of arrays):
# time f8, mid i8, node i8, src i8, dst i8, nbytes f8, flow i8, meta i8.
# ``meta`` packs reliability state: bit 0 = ephemeral duplicate, bit 1 =
# retransmit event (fires at the source host), bits 2+ = retry count.
# It is all zeros outside fault runs.  Delivery batches carry
# (time, mid, node, meta) only.
_BATCH_DTYPES = (
    np.float64, np.int64, np.int64, np.int64, np.int64, np.float64,
    np.int64, np.int64,
)

_META_EPHEMERAL = 1
_META_RETRANSMIT = 2


def _rows_to_batch(rows: list[tuple]) -> tuple | None:
    if not rows:
        return None
    cols = list(zip(*rows))
    return tuple(
        np.asarray(col, dtype=dt) for col, dt in zip(cols, _BATCH_DTYPES)
    )


def _concat_batches(batches: list) -> tuple | None:
    batches = [b for b in batches if b is not None and b[0].size]
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    return tuple(np.concatenate(cols) for cols in zip(*batches))


def _mask_batch(batch: tuple, mask: np.ndarray) -> tuple:
    return tuple(col[mask] for col in batch)


def _sort_batch(batch: tuple) -> tuple:
    order = np.lexsort((batch[1], batch[0]))  # time-major, mid tie-break
    return tuple(col[order] for col in batch)


def _msg_meta(msg: Message) -> int:
    return (msg.retries << 2) | (_META_EPHEMERAL if msg.ephemeral else 0)


def _worker_timeout_s() -> float:
    """Barrier heartbeat timeout from ``REPRO_WORKER_TIMEOUT``.  A
    non-finite deadline never expires (a wedged worker would hang the
    barrier) and a non-positive one declares any reply slower than one
    poll wedged, so both are rejected."""
    raw = os.environ.get("REPRO_WORKER_TIMEOUT", "30")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"REPRO_WORKER_TIMEOUT={raw!r}; use a finite number of "
            "seconds > 0"
        )
    return value


class _WorkerDied(Exception):
    """A worker process exited or wedged at the barrier."""

    def __init__(self, worker: int, reason: str) -> None:
        super().__init__(f"shard worker {worker}: {reason}")
        self.worker = worker
        self.reason = reason


class _CoordinatorFaultInjector(FaultInjector):
    """Coordinator-side injector for the sharded engine.

    Arming stays sharded: every injected spec is noted so the worker
    shards (forked later) arm identical local injectors and roll their
    own per-link fault decisions at the exact simulated instants.  The
    coordinator still applies every spec to its own topology copy —
    but the topology mutations its applications trigger are *muted*
    from the control-op broadcast: each worker fires the same
    transition itself, and a broadcast ctl op would arrive one window
    late.  Specs injected after the shards forked recall the engine to
    the sequential path (graceful degradation, not an error).
    """

    def inject(self, spec) -> None:
        net = self.net
        if net._forked:
            net._request_recall("fault injected mid-run")
        super().inject(spec)

    def _apply(self, spec) -> None:
        net = self.net
        net._ctl_mute += 1
        try:
            super()._apply(spec)
        finally:
            net._ctl_mute -= 1

    def _repair(self, spec) -> None:
        net = self.net
        net._ctl_mute += 1
        try:
            super()._repair(spec)
        finally:
            net._ctl_mute -= 1


class ShardedNetworkSimulator(NetworkSimulator):
    """Coordinator-side network simulator for the sharded engine.

    Construct through ``repro.pspin.pdes.build_engine`` (which plans
    the shards and handles graceful fallback); ``sim`` must be a
    :class:`~repro.pspin.pdes.ShardedSimulator`.
    """

    _fault_injector_cls = _CoordinatorFaultInjector
    _windowed = False

    def __init__(
        self,
        topology: Topology,
        router: "Router | str | None" = None,
        routing_seed: int = 0,
        sim: Simulator | None = None,
        arbitration: str = "fifo",
        plan: ShardPlan | None = None,
    ) -> None:
        if plan is None:
            raise ValueError("ShardedNetworkSimulator requires a ShardPlan")
        super().__init__(
            topology, router=router, routing_seed=routing_seed,
            sim=sim, arbitration=arbitration,
        )
        if not hasattr(self.sim, "attach_coupler"):
            raise TypeError("sharded engine needs a ShardedSimulator")
        self._plan = plan
        self._index = plan.index
        self.window = plan.lookahead
        self.engaged = True
        self._forked = False
        self._suspend_reason: str | None = None
        self._procs: list = []
        self._conns: list = []
        # name -> owner (int; -1 coordinator) for the hot path.
        self._owner = {
            name: int(plan.index.owner[i])
            for i, name in enumerate(plan.index.names)
        }
        self._owner_arr = plan.index.owner
        # Parked originals and message ids.
        self._parked: dict[int, Message] = {}
        self._next_mid = 1
        # Times of bounced switch deliveries not yet run here: a switch
        # callback may relay from its (worker-owned) switch at its
        # delivery instant, so no grant may pass one (heap).
        self._relay_times: list[float] = []
        self._first_switch = len(topology.hosts)
        # Undelivered cross-shard rows (hub relay).
        self._pending_rows: list[tuple] = []
        self._pending_batches: list[tuple] = []
        self._pending_min = _INF
        self._pending_count = 0
        # Worker status caches.
        self._worker_next: list[float] = []
        self._worker_last: list[float] = []
        self._worker_pending: list[int] = []
        self._remote_events = 0
        self._flushed = True
        # Provenance: WFQ queue-depth peaks reported by workers at
        # flush/recall, max-merged (integer maxima are order-free, so
        # this matches a sequential run bitwise).
        self._shard_queue_peaks: dict[tuple, int] = {}
        # Control-op log broadcast with each grant.
        self._ctl: list[tuple] = []
        self._ctl_sent = 0
        # Flow <-> integer encoding shared with workers.
        self._flow_enc_map: dict = {None: 0}
        self._flow_by_enc: dict = {0: None}
        # Nonzero while the coordinator's own fault applications mutate
        # the topology: those transitions replay inside each worker, so
        # broadcasting them as ctl ops would double-apply one window
        # late.
        self._ctl_mute = 0
        #: Degradation log: every recall, pre-fork disengage, and
        #: worker-crash recovery, as dicts with ``event``, ``reason``,
        #: ``sim_time_ns`` (provenance records these per run).
        self.degradations: list[dict] = []
        self.worker_timeout_s = _worker_timeout_s()
        # Worker kind, fixed at fork: vectorized windows (FIFO, no
        # fault schedule) or per-event shards.
        self._vector = False
        # Per-shard state mirrors: the shard's post-window in-flight
        # state, and the last grant batch not yet folded into it.
        # Vector-worker mirrors accumulate as batch *lists*
        # (appending is O(1) per window) and compact lazily — the
        # delivered-row filter is monotone in the window stop, so one
        # filter at compaction/crash time equals filtering every
        # window.
        self._mirror: list = []
        self._mirror_stop: list = []
        self._last_batch: list = []
        # Per-window link-counter deltas accumulate into flat numpy
        # arrays (fancy-indexed add) and materialize into the per-link
        # tables only at handover points (quiescence, recall, crash) or
        # every 64th window — the Python merge loop per window was the
        # dominant supervision cost.
        self._ck_bytes = None
        self._ck_msgs = None
        self._ck_windows = 0
        self.sim.attach_coupler(self)

    # ------------------------------------------------------------------
    # Flow encoding and control ops
    # ------------------------------------------------------------------
    def _flow_enc(self, flow) -> int:
        enc = self._flow_enc_map.get(flow)
        if enc is None:
            enc = len(self._flow_by_enc)
            self._flow_enc_map[flow] = enc
            self._flow_by_enc[enc] = flow
            self._ctl.append(("flow", enc, flow))
        return enc

    def on_deliver(self, node, callback, flow=None) -> None:
        super().on_deliver(node, callback, flow)
        if self.engaged:
            self._ctl.append(("cb", node, self._flow_enc(flow)))

    def set_flow_weight(self, flow, weight) -> None:
        super().set_flow_weight(flow, weight)
        if self.engaged:
            self._ctl.append(("weight", self._flow_enc(flow), float(weight)))

    def remove_flow(self, flow) -> None:
        super().remove_flow(flow)
        if self.engaged:
            self._ctl.append(("remove_flow", self._flow_enc(flow)))

    def abandon_flow(self, flow) -> None:
        if self.engaged:
            self._ctl.append(("abandon", self._flow_enc(flow)))
        super().abandon_flow(flow)

    def intercept(self, node, interceptor) -> None:
        self._request_recall("in-network interceptors registered")
        super().intercept(node, interceptor)

    def arm_faults(self, schedule=None, seed=None):
        # Sharded fault replay: arming no longer recalls.  Specs are
        # noted (the injector subclass tracks them) and re-armed inside
        # each worker at fork; whether the schedule can actually stay
        # sharded is classified at fork time (_fault_recall_reason).
        if self.faults is not None and seed is not None and self._forked:
            # Workers captured the old salt in their fork snapshot.
            self._request_recall("fault injector re-seeded mid-run")
        return super().arm_faults(schedule, seed)

    def _fault_recall_reason(self) -> str | None:
        """Classify the armed fault state at fork time: None when the
        schedule replays sharded, else the recall reason."""
        faults = self.faults
        if faults is None:
            return None
        if faults.applied:
            # Transitions already fired pre-fork (e.g. during a
            # sequential free-run): the workers' replay would
            # double-apply them.
            return "faults applied before shards engaged"
        if self.retransmit_timeout_ns < self.window:
            # A retransmission must land at or after the window stop to
            # respect the conservative lookahead.
            return "retransmit timeout shorter than the lookahead window"
        outage = any(
            s.switch is not None or s.kind == "down" for s in faults.specs
        )
        if outage and faults._listeners:
            # Recovery listeners (e.g. the fabric's replan-on-outage)
            # mutate cross-shard state the moment a link dies; their
            # reactions cannot be replayed at window granularity.
            return "fault listeners on an outage schedule"
        return None

    def _topology_changed(self, event: str, *args) -> None:
        super()._topology_changed(event, *args)
        if self.engaged and not self._ctl_mute:
            self._ctl.append((event, *args))

    def _record_degradation(self, event: str, reason: str, **detail) -> None:
        self.degradations.append({
            "event": event,
            "reason": reason,
            "sim_time_ns": float(self.sim.now),
            **detail,
        })

    # ------------------------------------------------------------------
    # Hot-path overrides: divert work owned by other shards
    # ------------------------------------------------------------------
    def _schedule_hop(self, time: float, msg: Message, node: NodeId) -> None:
        if self.engaged and self._owner[node] >= 0:
            self._offload(time, msg, node)
            return
        super()._schedule_hop(time, msg, node)

    def _hop(self, msg: Message, node: NodeId) -> None:
        if self.engaged and self._owner[node] >= 0:
            # e.g. burst entries expanding at a worker-owned source.
            self._offload(self.sim.now, msg, node)
            return
        super()._hop(msg, node)

    def send_burst(self, msgs: list[Message], at: float = 0.0) -> None:
        if self.engaged and any(self._owner[m.src] >= 0 for m in msgs):
            # Divert now, at ``at``: a burst event expanding at ``at``
            # could run after the source's worker has passed ``at``.
            for msg in msgs:
                self.send(msg, at=at)
            return
        super().send_burst(msgs, at)

    def _offload(self, time: float, msg: Message, node: NodeId) -> None:
        mid = msg.mid
        if mid == 0:
            mid = msg.mid = self._next_mid
            self._next_mid += 1
            self._parked[mid] = msg
        elif not msg.ephemeral:
            self._parked[mid] = msg
        # else: an ephemeral duplicate of an already-parked original —
        # the parked entry stays the original; the duplicate is
        # reconstructed from the row's meta bits on resume.
        idx = self._index.idx
        self._pending_rows.append((
            time, mid, idx[node], idx[msg.src], idx[msg.dst],
            msg.nbytes, self._flow_enc(msg.flow), _msg_meta(msg),
        ))
        self._pending_count += 1
        if time < self._pending_min:
            self._pending_min = time
        if time < self.sim.local_bound:
            self.sim.local_bound = time

    def _materialize(self, mid: int, meta: int) -> Message:
        """The live message for a crossing row: the parked original
        with its authoritative retry count restored, or a reconstructed
        ephemeral duplicate (duplicates share the original's mid but
        must not mutate its retransmission state)."""
        msg = self._parked[mid]
        if meta & _META_EPHEMERAL and not msg.ephemeral:
            return Message(
                msg.src, msg.dst, msg.nbytes, msg.tag, msg.payload,
                msg.flow, ephemeral=True, mid=mid,
            )
        if meta:
            msg.retries = meta >> 2
        return msg

    def _resume_parked(self, mid: int, node: NodeId, meta: int = 0) -> None:
        msg = self._materialize(mid, meta)
        if meta & _META_RETRANSMIT:
            # The host's retransmission timeout fires here (the row's
            # time already includes it); _retransmit counts and re-hops
            # from the source.
            NetworkSimulator._retransmit(self, msg)
            return
        if node == msg.dst and self.faults is None:
            # Under faults a late duplicate may still reference the
            # parked original after delivery; entries clear at
            # quiescence instead.
            del self._parked[mid]
        NetworkSimulator._hop(self, msg, node)

    # ------------------------------------------------------------------
    # Barrier protocol (driven by ShardedSimulator)
    # ------------------------------------------------------------------
    def advance(self, until: float | None) -> float | None:
        """One barrier: compute the global window, dispatch it to the
        workers, merge their replies, and return the coordinator's own
        local execution bound (None = globally idle / past ``until``).
        """
        if self._suspend_reason is not None:
            self._do_recall()
            return None
        sim = self.sim
        local = sim.peek_time()
        t0 = local if local is not None else _INF
        if self._pending_min < t0:
            t0 = self._pending_min
        worker_min = min(self._worker_next, default=_INF)
        if worker_min < t0:
            t0 = worker_min
        if t0 == _INF:
            self._quiesce()
            return None
        if until is not None and t0 > until:
            return None
        if (
            not self._forked
            and self.faults is not None
            and self.faults.specs
            and not self.faults.applied
        ):
            # An armed-but-unapplied fault schedule: fork *now*, before
            # the free-run below executes the first ``_apply`` in the
            # coordinator.  Once a transition has fired pre-fork the
            # workers' shard-local replay would double-apply it and the
            # only safe answer is to disengage — forking first keeps
            # pure link-fault schedules sharded.
            reason = self._fault_recall_reason()
            if reason is not None:
                self._request_recall(reason)
                return None
            self._fork()
        if worker_min == _INF and self._pending_min == _INF:
            # Workers idle and nothing queued for them: free-run the
            # coordinator until it next crosses a shard boundary
            # (sim.local_bound tightens dynamically in _offload).
            sim.local_bound = _INF
            if until is None:
                return _INF
            # Events at exactly `until` run: sequential run(until) is
            # inclusive, window stops are exclusive.
            return math.nextafter(until, _INF)
        if not self._forked:
            reason = self._fault_recall_reason()
            if reason is not None:
                self._request_recall(reason)
                return None
            self._fork()
        stop = t0 + self.window
        relays = self._relay_times
        while relays and (local is None or relays[0] < local):
            heapq.heappop(relays)           # already run here
        if relays and relays[0] < stop:
            stop = math.nextafter(relays[0], _INF)
        if until is not None and until < stop:
            stop = math.nextafter(until, _INF)
        sim.local_bound = _INF
        return self._dispatch(stop)

    def _dispatch(self, stop: float) -> float:
        """Grant the window ending at ``stop``; return the bound the
        coordinator's own copy of it may run to."""
        self._flushed = False
        until = stop
        ctl = self._ctl[self._ctl_sent:]
        self._ctl_sent = len(self._ctl)
        shard_batches = self._split_pending()
        dead: dict[int, str] = {}
        for w, (conn, batch) in enumerate(zip(self._conns, shard_batches)):
            self._last_batch[w] = batch
            try:
                conn.send(("w", stop, batch, ctl))
            except (BrokenPipeError, OSError):
                dead[w] = "worker process died"
        inbound: list = []
        deliveries: list = []
        for w, conn in enumerate(self._conns):
            if w in dead:
                continue
            try:
                reply = self._recv(w, conn)
            except _WorkerDied as exc:
                dead[exc.worker] = exc.reason
                continue
            (_, outbox, dels, stats, next_t, last_t, events, npend, ck,
             w_stop) = reply
            # A worker that stopped at a switch delivery ran less than
            # the window; nothing may run past it before the relay.
            if w_stop < until:
                until = w_stop
            if outbox is not None:
                ow = self._owner_arr[outbox[2]]
                coord = ow < 0
                if coord.any():
                    inbound.append(_mask_batch(outbox, coord))
                rest = ~coord
                if rest.any():
                    batch = _mask_batch(outbox, rest)
                    self._pending_batches.append(batch)
                    self._pending_count += int(batch[0].size)
                    low = float(batch[0].min())
                    if low < self._pending_min:
                        self._pending_min = low
            if dels is not None:
                deliveries.append(dels)
                for t in dels[0][dels[2] >= self._first_switch].tolist():
                    heapq.heappush(self._relay_times, t)
            if stats is not None:
                self._merge_stats(stats)
            if ck is not None:
                self._absorb_ck(w, ck, w_stop)
            self._worker_next[w] = next_t if next_t is not None else _INF
            self._worker_last[w] = last_t
            self._worker_pending[w] = npend
            self._remote_events += events
        # Deliveries (t < stop) interleave with the coordinator's own
        # window; inbound crossings (t >= stop) land in future windows.
        for batch in (_concat_batches(deliveries), _concat_batches(inbound)):
            if batch is not None:
                self._schedule_batch(_sort_batch(batch))
        if dead:
            self._crash_recover(dead, stop)
        return until

    def _recv(self, w: int, conn):
        """One barrier receive with heartbeat supervision.  Raises
        :class:`_WorkerDied` when the worker exited or stayed silent
        past the timeout."""
        proc = self._procs[w]
        deadline = _walltime.monotonic() + self.worker_timeout_s
        while True:
            try:
                if conn.poll(0.05):
                    reply = conn.recv()
                    break
            except (EOFError, OSError):
                raise _WorkerDied(w, "worker process died") from None
            if not proc.is_alive():
                # Drain a reply written just before death.
                try:
                    if conn.poll(0):
                        reply = conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise _WorkerDied(w, "worker process died")
            if _walltime.monotonic() >= deadline:
                raise _WorkerDied(
                    w,
                    "worker wedged at the barrier "
                    f"(> {self.worker_timeout_s:.0f}s)",
                )
        if reply[0] == "err":
            if len(reply) > 2 and reply[2] == "UnreachableError":
                raise UnreachableError(
                    f"shard worker {w}:\n{reply[1]}"
                )
            raise RuntimeError(f"shard worker {w} failed:\n{reply[1]}")
        return reply

    def _absorb_ck(self, w: int, ck: tuple, stop: float) -> None:
        """Fold one worker's per-window checkpoint into its mirror.

        Link-counter deltas and busy times merge into the coordinator
        tables immediately (each link is owned by exactly one shard, so
        mid-run merging is exact and the final flush sees empty
        deltas); the in-flight state replaces/extends the mirror.
        """
        state, queues, flush, busy, peaks = ck
        if flush is not None:
            idx, byts, msgs = flush
            if self._ck_bytes is None:
                n = len(self._index.link_keys)
                self._ck_bytes = np.zeros(n)
                self._ck_msgs = np.zeros(n, np.int64)
            # nz indices from the worker's flush are unique, so plain
            # fancy-indexed add is exact (and far cheaper than add.at).
            self._ck_bytes[idx] += byts
            self._ck_msgs[idx] += msgs
            self._ck_windows += 1
            if self._ck_windows % 64 == 0:
                # Keep mid-run readers (streaming provenance ticks)
                # loosely fresh without paying the merge every window.
                self._drain_ck_flush()
        if busy is not None:
            self._apply_busy(busy)
        if peaks:
            self._merge_queue_peaks(peaks)
        if self._vector:
            # state = every arrival generated inside the shard this
            # window; post-window pend is exactly the t >= stop subset
            # of (previous pend | every grant | everything generated) —
            # append now, filter at compaction.
            bucket = self._mirror[w]
            if bucket is None:
                bucket = self._mirror[w] = []
            if self._last_batch[w] is not None:
                bucket.append(self._last_batch[w])
            if state is not None:
                bucket.append(state)
            self._mirror_stop[w] = stop
            if len(bucket) > 16:
                self._mirror[w] = self._compact_mirror(w)
        else:
            # Event workers dump their live heap/queues; the grant is
            # already inside the heap.
            self._mirror[w] = (state, queues)
        self._last_batch[w] = None

    def _compact_mirror(self, w: int) -> list:
        """Concat shard ``w``'s accumulated vector-worker mirror
        batches and drop rows its worker already delivered (``t``
        before the last completed window stop)."""
        bucket = self._mirror[w]
        if not bucket:
            return []
        batch = _concat_batches(bucket)
        keep = batch[0] >= self._mirror_stop[w]
        if not keep.all():
            batch = _mask_batch(batch, keep) if keep.any() else None
        return [batch] if batch is not None else []

    def _drain_ck_flush(self) -> None:
        """Materialize the accumulated per-window link-counter deltas
        into the per-link tables (exactness point: handover to the
        sequential engine, quiescence, or a provenance read)."""
        if self._ck_bytes is None:
            return
        nz = np.nonzero((self._ck_bytes != 0) | (self._ck_msgs != 0))[0]
        if nz.size:
            self._merge_link_flush(
                (nz, self._ck_bytes[nz], self._ck_msgs[nz])
            )
        self._ck_bytes = None
        self._ck_msgs = None

    def _crash_recover(self, dead: dict[int, str], stop: float) -> None:
        """A worker died or wedged mid-window: restore its shard from
        the last completed window and continue sequentially.

        Surviving shards completed this window — their mirrors, stats,
        and link tables are current.  The dead shard's window never
        happened (no reply, no visible effects), so its mirror (post
        previous window) plus the undelivered grant batch is exactly
        its live state; re-executing from there sequentially reproduces
        the uninterrupted run bitwise.
        """
        for w, reason in dead.items():
            self._record_degradation(
                "worker_crash", reason, worker=w, window_stop=float(stop),
            )
            proc = self._procs[w]
            if proc.is_alive():  # wedged, not dead: put it down hard
                proc.kill()
        warnings.warn(
            "sharded engine lost worker(s) "
            f"{sorted(dead)} ({'; '.join(set(dead.values()))}); "
            "recovered from the last completed window, continuing "
            "sequentially",
            RuntimeWarning,
            stacklevel=4,
        )
        self._drain_ck_flush()
        arrivals: list[tuple] = []
        queues: list[tuple] = []
        for w in range(self._plan.n_shards):
            self._mirror_state(w, arrivals, queues)
        self._shutdown_procs()
        self.engaged = False
        self._flushed = True
        n = self._plan.n_shards
        self._worker_next = [_INF] * n
        self._worker_pending = [0] * n
        self._restore_recalled(arrivals, queues)

    def _mirror_state(self, w: int, arrivals: list, queues: list) -> None:
        """Append shard ``w``'s in-flight state as of its last completed
        window — its mirror plus the grant batch not yet folded into
        it — as ``_restore_recalled`` arrival and queue rows."""
        if self._vector:
            batches = self._compact_mirror(w) + [self._last_batch[w]]
        else:
            if self._mirror[w] is not None:
                arr, qs = self._mirror[w]
                arrivals.extend(arr)
                queues.extend(qs)
            batches = [self._last_batch[w]]
        batch = _concat_batches(batches)
        if batch is not None:
            t, mid, node, meta = batch[0], batch[1], batch[2], batch[7]
            for i in range(t.size):
                arrivals.append((
                    float(t[i]), int(mid[i]), int(mid[i]), int(node[i]),
                    int(meta[i]),
                ))

    def _schedule_batch(self, batch: tuple) -> None:
        names = self._index.names
        schedule = self.sim.schedule_fast
        resume = self._resume_parked
        t_col, mid_col, node_col = batch[0], batch[1], batch[2]
        # Crossing batches carry meta in column 7, delivery bounces in
        # column 3.
        meta_col = batch[7] if len(batch) > 4 else batch[3]
        for i in range(t_col.size):
            schedule(
                float(t_col[i]), resume,
                (int(mid_col[i]), names[int(node_col[i])], int(meta_col[i])),
            )

    def _split_pending(self) -> list:
        batch = _concat_batches(
            self._pending_batches + [_rows_to_batch(self._pending_rows)]
        )
        self._pending_rows = []
        self._pending_batches = []
        self._pending_min = _INF
        self._pending_count = 0
        out: list = [None] * self._plan.n_shards
        if batch is None:
            return out
        ow = self._owner_arr[batch[2]]
        for shard in range(self._plan.n_shards):
            mask = ow == shard
            if mask.any():
                out[shard] = _sort_batch(_mask_batch(batch, mask))
        coord = ow < 0
        if coord.any():
            self._schedule_batch(_sort_batch(_mask_batch(batch, coord)))
        return out

    # ------------------------------------------------------------------
    # Stats merging
    # ------------------------------------------------------------------
    def _merge_stats(self, delta: tuple) -> None:
        if len(delta) == 3:
            bh, msgs, flows = delta
            rel = None
        else:
            bh, msgs, flows, rel = delta
        self.traffic.bytes_hops += bh
        self.traffic.messages += msgs
        if flows:
            keys = self._index.link_keys
            for enc, fdelta in flows.items():
                stats = self.flow_stats(self._flow_by_enc[enc])
                fbh, fmsgs, links = fdelta[0], fdelta[1], fdelta[2]
                stats.bytes_hops += fbh
                stats.messages += fmsgs
                per_link = stats.per_link
                for li, val in links.items():
                    key = keys[li]
                    per_link[key] = per_link.get(key, 0.0) + val
                if len(fdelta) > 3:
                    stats.drops += fdelta[3]
                    stats.duplicates += fdelta[4]
                    stats.retransmits += fdelta[5]
        if rel is not None:
            keys = self._index.link_keys
            traffic = self.traffic
            drops, dups, retx, ldrops, ldups = rel
            traffic.drops += drops
            traffic.duplicates += dups
            traffic.retransmits += retx
            for table, deltas in (
                (traffic.link_drops, ldrops),
                (traffic.link_duplicates, ldups),
            ):
                for li, n in deltas.items():
                    key = keys[li]
                    table[key] = table.get(key, 0) + n

    def _merge_link_flush(self, flush: tuple) -> None:
        idx, byts, msgs = flush
        per_link = self.traffic.per_link
        keys = self._index.link_keys
        links = self.topology._links
        for i in range(len(idx)):
            key = keys[int(idx[i])]
            byte_delta = float(byts[i])
            per_link[key] = per_link.get(key, 0.0) + byte_delta
            link = links[key]
            link.bytes_carried += byte_delta
            link.messages_carried += int(msgs[i])

    def _apply_busy(self, busy: tuple) -> None:
        idx, values = busy
        keys = self._index.link_keys
        links = self.topology._links
        for i in range(len(idx)):
            links[keys[int(idx[i])]].busy_until = float(values[i])

    def _merge_queue_peaks(self, peaks: list) -> None:
        names = self._index.names
        table = self._shard_queue_peaks
        for a_idx, b_idx, peak in peaks:
            key = (names[int(a_idx)], names[int(b_idx)])
            if peak > table.get(key, 0):
                table[key] = peak

    def queue_depth_peaks(self) -> dict:
        """Coordinator-local peaks max-merged with worker-reported ones
        (each (a, b) queue lives wholly on node ``a``'s shard, so the
        merge reproduces the sequential run's high-water marks)."""
        out = NetworkSimulator.queue_depth_peaks(self)
        for key, peak in self._shard_queue_peaks.items():
            if peak > out.get(key, 0):
                out[key] = peak
        return out

    def _flush_workers(self) -> None:
        """Pull every worker's link/busy/peak deltas into the
        coordinator-side tables (idempotent between windows)."""
        self._drain_ck_flush()
        if not self._forked or self._flushed:
            return
        dead: dict[int, str] = {}
        for w, conn in enumerate(self._conns):
            try:
                conn.send(("f",))
            except (BrokenPipeError, OSError):
                dead[w] = "worker process died"
        for w, conn in enumerate(self._conns):
            if w in dead:
                continue
            try:
                reply = self._recv(w, conn)
            except _WorkerDied as exc:
                dead[exc.worker] = exc.reason
                continue
            _, flush, busy, peaks, last_t = reply
            if flush is not None:
                self._merge_link_flush(flush)
            if busy is not None:
                self._apply_busy(busy)
            if peaks:
                self._merge_queue_peaks(peaks)
            self._worker_last[w] = last_t
        self._flushed = True
        # At a flush barrier every shard is idle (quiescence) or its
        # in-flight state is intentionally dropped (shutdown mid-run);
        # the counters were already merged per window, so only record
        # the loss.
        for w, reason in dead.items():
            self._record_degradation("worker_crash", reason, worker=w)

    def _quiesce(self) -> None:
        """Global idle: merge per-link tables, settle the clock."""
        self._flush_workers()
        self._parked.clear()
        last = max(self._worker_last, default=0.0)
        if last > self.sim.now:
            self.sim.now = last

    # ------------------------------------------------------------------
    # Introspection for ShardedSimulator
    # ------------------------------------------------------------------
    def remote_pending(self) -> int:
        return self._pending_count + sum(self._worker_pending)

    def remote_events(self) -> int:
        return self._remote_events

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _fork(self) -> None:
        ctx = get_context("fork")
        self._vector = self.arbitration == "fifo" and self.faults is None
        # Everything in the ctl log so far is visible in the fork
        # snapshot; only later entries need broadcasting.
        self._ctl_sent = len(self._ctl)
        n = self._plan.n_shards
        self._worker_next = [_INF] * n
        self._worker_last = [self.sim.now] * n
        self._worker_pending = [0] * n
        self._mirror = [None] * n
        self._mirror_stop = [-_INF] * n
        self._last_batch = [None] * n
        for shard in range(n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child, shard, self), daemon=True
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._forked = True

    def _request_recall(self, reason: str) -> None:
        if not self.engaged:
            return
        if not self._forked:
            warnings.warn(
                f"sharded engine disengaged before start ({reason}); "
                "running sequentially",
                RuntimeWarning,
                stacklevel=3,
            )
            self.engaged = False
            self._record_degradation("disengaged", reason)
            # Rows offloaded for the (never-started) workers rejoin
            # the sequential heap — dropping them would strand their
            # parked messages and drain the event loop mid-collective.
            self._restore_recalled([], [])
            return
        self._suspend_reason = reason

    def _do_recall(self) -> None:
        """Pull every worker's live state back and continue sequential.

        Exact when requested at quiescence (the supported pattern:
        faults/interceptors arm before a run or between runs); mid-run
        the handover happens at the next barrier, so effects on
        in-flight traffic begin one window (= one lookahead) later.
        """
        reason = self._suspend_reason
        self._suspend_reason = None
        warnings.warn(
            f"sharded engine recalled ({reason}); continuing sequentially",
            RuntimeWarning,
            stacklevel=2,
        )
        self._record_degradation("recall", reason)
        self._drain_ck_flush()
        arrivals: list[tuple] = []
        queues: list[tuple] = []
        dead: dict[int, str] = {}
        for w, conn in enumerate(self._conns):
            try:
                conn.send(("rc",))
            except (BrokenPipeError, OSError):
                dead[w] = "worker process died"
        for w, conn in enumerate(self._conns):
            if w in dead:
                continue
            try:
                reply = self._recv(w, conn)
            except _WorkerDied as exc:
                dead[exc.worker] = exc.reason
                continue
            _, arr, qs, stats, flush, busy, peaks, last_t = reply
            arrivals.extend(arr)
            queues.extend(qs)
            if stats is not None:
                self._merge_stats(stats)
            if flush is not None:
                self._merge_link_flush(flush)
            if busy is not None:
                self._apply_busy(busy)
            if peaks:
                self._merge_queue_peaks(peaks)
            self._worker_last[w] = last_t
        # Restore the dead shard(s) from their mirrors (state as of the
        # last completed window — exact: a recall happens between
        # windows, when every effect through the last window has
        # already been absorbed).
        for w, reason_ in dead.items():
            self._record_degradation("worker_crash", reason_, worker=w)
            self._mirror_state(w, arrivals, queues)
        self._shutdown_procs()
        self.engaged = False
        self._restore_recalled(arrivals, queues)

    def _restore_recalled(
        self, arrivals: list[tuple], queues: list[tuple]
    ) -> None:
        """Re-schedule recovered worker state into the coordinator's
        own heap/queues (the shared tail of recall and crash
        recovery)."""
        names = self._index.names
        # Rows queued for relay but never dispatched rejoin the heap.
        batch = _concat_batches(
            self._pending_batches + [_rows_to_batch(self._pending_rows)]
        )
        if batch is not None:
            self._schedule_batch(_sort_batch(batch))
        self._pending_rows = []
        self._pending_batches = []
        self._pending_min = _INF
        self._pending_count = 0
        # In-flight arrivals recovered from worker heaps, in their
        # original (time, seq) order.
        for t, _seq, mid, node_idx, meta in sorted(arrivals):
            self.sim.schedule_fast(
                t, self._resume_parked, (mid, names[node_idx], meta)
            )
        # WFQ queue contents: rebuild coordinator-side queues with the
        # same service order and re-arm their drains.
        now = self.sim.now
        for (a_idx, b_idx, vtime, tags, entries) in queues:
            key = (names[a_idx], names[b_idx])
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = _LinkQueue(self.topology.link(*key))
            queue.vtime = vtime
            for enc, tag in tags.items():
                queue.finish_tag[self._flow_by_enc[enc]] = tag
            for start, _seq, mid, node_idx, meta in sorted(
                entries, key=lambda e: (e[0], e[1])
            ):
                heapq.heappush(
                    queue.heap,
                    (
                        start, self._queue_seq,
                        self._materialize(mid, meta), names[node_idx],
                    ),
                )
                self._queue_seq += 1
            if queue.heap and not queue.drain_scheduled:
                queue.drain_scheduled = True
                at = queue.link.busy_until
                self.sim.schedule_fast(
                    at if at > now else now, self._rearm, (key, queue),
                    priority=0,
                )

    def _shutdown_procs(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("x",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hang safety
                proc.terminate()
                proc.join(timeout=1)
                if proc.is_alive():  # e.g. SIGSTOPped: SIGTERM pends
                    proc.kill()
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        self._forked = False

    def shutdown(self) -> None:
        """Stop worker processes (call at quiescence; in-flight state
        on the workers is not recovered).

        Worker-side traffic deltas ARE recovered: a driver that stops
        on a settled future (``Fabric.run_until``) never reaches the
        quiescence barrier, so the final flush happens here — the
        provenance recorder reads links after this returns."""
        if self._forked:
            self._flush_workers()
            self._shutdown_procs()
        self.engaged = False

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            if self._forked:
                self._shutdown_procs()
        except Exception:
            pass


# ======================================================================
# Worker side
# ======================================================================
def _worker_main(conn, shard: int, coord: ShardedNetworkSimulator) -> None:
    """Forked worker entry point: build the shard runtime over the
    inherited (copy-on-write) snapshot and serve barrier requests."""
    try:
        if coord._vector:
            runtime = _VectorWorker(coord, shard)
        else:
            runtime = _EventWorker(coord, shard)
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "w":
                conn.send(runtime.window(msg[1], msg[2], msg[3]))
            elif tag == "f":
                conn.send(runtime.flush())
            elif tag == "rc":
                conn.send(runtime.recall())
                return
            elif tag == "x":
                return
    except EOFError:  # pragma: no cover - parent died
        return
    except Exception as exc:  # surface the traceback to the coordinator
        try:
            conn.send(("err", traceback.format_exc(), type(exc).__name__))
        except Exception:  # pragma: no cover
            pass


class _WorkerBase:
    """State shared by both worker runtimes: flow decoding, callback
    keys, per-link stat snapshots, control-op replay."""

    def __init__(self, coord: ShardedNetworkSimulator, shard: int) -> None:
        self.shard = shard
        self.index = coord._index
        self.owner = coord._index.owner
        self.names = coord._index.names
        self.topology = coord.topology  # this process's private copy
        self.router = coord.router      # same: private post-fork copy
        self.flow_by_enc = dict(coord._flow_by_enc)
        self.enc_by_flow = dict(coord._flow_enc_map)
        # Delivery-callback keys: an arrival terminating at one of
        # these is state the coordinator wants to see — bounce it back.
        self.cb_keys = set(coord._deliver_cb.keys())
        # Node indices at or past this are switches.  A callback at a
        # switch may relay from that switch at its delivery instant (a
        # tree schedule), with no link latency to hide behind, so a
        # window ends right after a switch delivery.
        self.first_switch = len(coord.topology.hosts)
        links = coord.topology.links()
        self.links = links
        self.link_owner = self.owner[self.index.link_src]
        self.snap_busy = np.fromiter(
            (ln.busy_until for ln in links), np.float64, len(links)
        )
        self.snap_bytes = np.fromiter(
            (ln.bytes_carried for ln in links), np.float64, len(links)
        )
        self.snap_msgs = np.fromiter(
            (ln.messages_carried for ln in links), np.int64, len(links)
        )

    # -- control ops ---------------------------------------------------
    def apply_controls(self, ctl: list[tuple]) -> None:
        for op in ctl:
            kind = op[0]
            if kind == "flow":
                _, enc, flow = op
                self.flow_by_enc[enc] = flow
                self.enc_by_flow[flow] = enc
            elif kind == "cb":
                _, node, enc = op
                self.cb_keys.add((node, self.flow_by_enc[enc]))
                self.on_cb_change()
            elif kind == "weight":
                _, enc, w = op
                self.set_weight(self.flow_by_enc[enc], w)
            elif kind == "remove_flow":
                flow = self.flow_by_enc[op[1]]
                self.cb_keys = {k for k in self.cb_keys if k[1] != flow}
                self.remove_flow_local(flow)
                self.on_cb_change()
            elif kind == "abandon":
                flow = self.flow_by_enc[op[1]]
                self.cb_keys = {k for k in self.cb_keys if k[1] != flow}
                self.abandon_local(flow)
                self.on_cb_change()
            elif kind == "fail_link":
                self.topology.fail_link(op[1], op[2])
                self.on_topology_ctl()
            elif kind == "repair_link":
                self.topology.repair_link(op[1], op[2])
                self.on_topology_ctl()
            elif kind == "fail_switch":
                self.topology.fail_switch(op[1])
                self.on_topology_ctl()
            elif kind == "repair_switch":
                self.topology.repair_switch(op[1])
                self.on_topology_ctl()
            elif kind == "set_link_rate":
                self.topology.set_link_rate(op[1], op[2], op[3])
                self.on_rate_ctl(op[1], op[2])
            else:  # pragma: no cover - protocol drift guard
                raise RuntimeError(f"unknown control op {op!r}")

    def on_cb_change(self) -> None:
        pass

    def on_topology_ctl(self) -> None:
        pass

    def on_rate_ctl(self, a: NodeId, b: NodeId) -> None:
        pass

    def set_weight(self, flow, w: float) -> None:
        pass

    def remove_flow_local(self, flow) -> None:
        pass

    def abandon_local(self, flow) -> None:
        pass

    # -- link state deltas ---------------------------------------------
    def link_flush(self):
        cur_bytes = np.fromiter(
            (ln.bytes_carried for ln in self.links), np.float64, len(self.links)
        )
        cur_msgs = np.fromiter(
            (ln.messages_carried for ln in self.links), np.int64, len(self.links)
        )
        db = cur_bytes - self.snap_bytes
        dm = cur_msgs - self.snap_msgs
        self.snap_bytes = cur_bytes
        self.snap_msgs = cur_msgs
        nz = np.nonzero((db != 0) | (dm != 0))[0]
        if nz.size == 0:
            return None
        return (nz.astype(np.int64), db[nz], dm[nz])

    def busy_state(self):
        cur = np.fromiter(
            (ln.busy_until for ln in self.links), np.float64, len(self.links)
        )
        changed = np.nonzero(
            (cur != self.snap_busy) & (self.link_owner == self.shard)
        )[0]
        self.snap_busy = cur
        if changed.size == 0:
            return None
        return (changed.astype(np.int64), cur[changed])


class _EventWorker(_WorkerBase):
    """Per-event worker shard, used under WFQ arbitration or any armed
    fault schedule: a real :class:`NetworkSimulator` over this
    process's topology copy (so fault replay runs the sequential
    oracle's own transmit, loss and injector code), with cross-shard
    arrivals diverted into the outbox and deliveries bounced back to
    the coordinator."""

    def __init__(self, coord: ShardedNetworkSimulator, shard: int) -> None:
        super().__init__(coord, shard)
        self.sim = Simulator()
        self.sim.now = coord.sim.now
        self.net = _ShardNet(
            coord.topology, router=coord.router, sim=self.sim,
            arbitration=coord.arbitration,
        )
        self.net.runtime = self
        self.net._flow_weight.update(coord._flow_weight)
        self.net._dead_flows |= coord._dead_flows
        self.outbox: list[tuple] = []
        self.deliveries: list[tuple] = []
        self.link_index = {
            key: i for i, key in enumerate(self.index.link_keys)
        }
        # Global-scalar snapshots for per-window deltas.
        self._bh_sent = 0.0
        self._msgs_sent = 0
        self._flow_sent: dict = {}
        # Reliability-counter snapshots (fault runs).
        self._rel_sent = [0, 0, 0, {}, {}]
        self._applied_sent = 0
        if coord.faults is not None:
            # Sharded fault replay: arm an identical local injector
            # over this process's topology copy.  Nothing has executed
            # pre-fork (classification guarantees it), so every spec
            # re-arms at the same simulated instant the coordinator
            # armed it.
            self.net.retransmit_timeout_ns = coord.retransmit_timeout_ns
            self.net.max_retransmits = coord.max_retransmits
            inj = self.net.arm_faults(seed=coord.faults.seed)
            for spec in coord.faults.specs:
                inj.inject(spec)

    def set_weight(self, flow, w: float) -> None:
        self.net._flow_weight[flow] = w

    def remove_flow_local(self, flow) -> None:
        self.net.remove_flow(flow)

    def abandon_local(self, flow) -> None:
        self.net.abandon_flow(flow)

    def window(self, stop: float, batch, ctl) -> tuple:
        self.apply_controls(ctl)
        if batch is not None:
            self._schedule_batch(batch)
        self.sim.stop_requested = False
        events = self.sim.run_window(stop, stoppable=True)
        if self.sim.stop_requested:     # stopped at a switch delivery
            stop = math.nextafter(self.sim.now, _INF)
        # A bounced delivery executes as a coordinator event; don't
        # count its worker-side arrival too.
        events -= len(self.deliveries)
        faults = self.net.faults
        if faults is not None:
            # Fault apply/repair transitions fire in every process; the
            # coordinator's own copies are the counted ones.
            applied = len(faults.applied)
            events -= applied - self._applied_sent
            self._applied_sent = applied
        out = _rows_to_batch(self.outbox)
        self.outbox = []
        dels = _deliveries_to_batch(self.deliveries)
        self.deliveries = []
        # Checkpoint: post-window in-flight state, so the coordinator
        # can recover this shard if the process later dies.
        arrivals, queues = self._live_state()
        ck = (
            arrivals, queues, self.link_flush(), self.busy_state(),
            self.queue_peaks(),
        )
        return (
            "r", out, dels, self._stats_delta(), self.sim.peek_time(),
            self.sim.now, events, self.sim.pending, ck, stop,
        )

    def _schedule_batch(self, batch: tuple) -> None:
        names = self.names
        t, mid, node, src, dst, nb, fl, meta = batch
        hop = self.net._hop
        retransmit = self.net._retransmit
        schedule = self.sim.schedule_fast
        flow_by_enc = self.flow_by_enc
        for i in range(t.size):
            m = int(meta[i])
            msg = Message(
                names[int(src[i])], names[int(dst[i])], float(nb[i]),
                flow=flow_by_enc[int(fl[i])], mid=int(mid[i]),
                retries=m >> 2, ephemeral=bool(m & _META_EPHEMERAL),
            )
            if m & _META_RETRANSMIT:
                # The host timeout fires here, at the source.
                schedule(float(t[i]), retransmit, (msg,))
            else:
                schedule(float(t[i]), hop, (msg, names[int(node[i])]))

    def _stats_delta(self):
        traffic = self.net.traffic
        faulty = self.net.faults is not None
        bh = traffic.bytes_hops - self._bh_sent
        msgs = traffic.messages - self._msgs_sent
        flows = {}
        link_index = self.link_index
        for flow, stats in self.net._flow_traffic.items():
            sent = self._flow_sent.get(flow)
            if sent is None:
                sent = self._flow_sent[flow] = [0.0, 0, {}, 0, 0, 0]
            dbh = stats.bytes_hops - sent[0]
            dmsgs = stats.messages - sent[1]
            fdrops = stats.drops - sent[3]
            fdups = stats.duplicates - sent[4]
            fretx = stats.retransmits - sent[5]
            if dbh == 0.0 and dmsgs == 0 and not (fdrops or fdups or fretx):
                continue
            dl = {}
            prev = sent[2]
            for key, val in stats.per_link.items():
                delta = val - prev.get(key, 0.0)
                if delta:
                    dl[link_index[key]] = delta
            sent[0] = stats.bytes_hops
            sent[1] = stats.messages
            sent[2] = dict(stats.per_link)
            sent[3] = stats.drops
            sent[4] = stats.duplicates
            sent[5] = stats.retransmits
            if faulty:
                flows[self.enc_by_flow[flow]] = (
                    dbh, dmsgs, dl, fdrops, fdups, fretx,
                )
            else:
                flows[self.enc_by_flow[flow]] = (dbh, dmsgs, dl)
        rel = None
        if faulty:
            rs = self._rel_sent
            drops = traffic.drops - rs[0]
            dups = traffic.duplicates - rs[1]
            retx = traffic.retransmits - rs[2]
            ldrops = {}
            for key, val in traffic.link_drops.items():
                d = val - rs[3].get(key, 0)
                if d:
                    ldrops[link_index[key]] = d
            ldups = {}
            for key, val in traffic.link_duplicates.items():
                d = val - rs[4].get(key, 0)
                if d:
                    ldups[link_index[key]] = d
            if drops or dups or retx or ldrops or ldups:
                rel = (drops, dups, retx, ldrops, ldups)
                rs[0] = traffic.drops
                rs[1] = traffic.duplicates
                rs[2] = traffic.retransmits
                rs[3] = dict(traffic.link_drops)
                rs[4] = dict(traffic.link_duplicates)
        if bh == 0.0 and msgs == 0 and not flows and rel is None:
            return None
        self._bh_sent = traffic.bytes_hops
        self._msgs_sent = traffic.messages
        if rel is not None:
            return (bh, msgs, flows, rel)
        return (bh, msgs, flows)

    def queue_peaks(self):
        """WFQ queue-depth peaks on this shard as ``(a_idx, b_idx,
        peak)`` rows (None when no queue ever held a message).  Not
        reset after reporting: the coordinator max-merges, which is
        idempotent."""
        idx = self.index.idx
        peaks = [
            (idx[a], idx[b], queue.depth_peak)
            for (a, b), queue in self.net._queues.items()
            if queue.depth_peak
        ]
        return peaks or None

    def flush(self) -> tuple:
        return (
            "fr", self.link_flush(), self.busy_state(), self.queue_peaks(),
            self.sim.now,
        )

    def _live_state(self) -> tuple[list, list]:
        """In-flight arrivals and WFQ queue contents as numeric rows
        (the shared core of recall and per-window checkpoints)."""
        idx = self.index.idx
        net = self.net
        hop = net._hop
        rearm = net._rearm
        retransmit = net._retransmit
        faults = net.faults
        fault_apply = faults._apply if faults is not None else None
        fault_repair = faults._repair if faults is not None else None
        arrivals = []
        for t, _priority, seq, cb, args in self.sim.queued():
            if cb == hop:
                msg, node = args
                arrivals.append((t, seq, msg.mid, idx[node], _msg_meta(msg)))
            elif cb == rearm:
                continue  # re-derived from queue state
            elif cb == retransmit:
                # Pending host timeout: fires at the source with the
                # already-bumped retry count.
                (msg,) = args
                arrivals.append((
                    t, seq, msg.mid, idx[msg.src],
                    _META_RETRANSMIT | (msg.retries << 2),
                ))
            elif cb == fault_apply or cb == fault_repair:
                continue  # the coordinator applies its own copies
            else:  # pragma: no cover - protocol drift guard
                raise RuntimeError(f"unexpected worker event {cb!r}")
        queues = []
        for (a, b), queue in net._queues.items():
            if not queue.heap:
                continue
            tags = {
                self.enc_by_flow[f]: tag
                for f, tag in queue.finish_tag.items()
            }
            entries = [
                (start, seq, msg.mid, idx[node], _msg_meta(msg))
                for (start, seq, msg, node) in queue.heap
            ]
            queues.append((idx[a], idx[b], queue.vtime, tags, entries))
        return arrivals, queues

    def recall(self) -> tuple:
        arrivals, queues = self._live_state()
        return (
            "rcr", arrivals, queues, self._stats_delta(), self.link_flush(),
            self.busy_state(), self.queue_peaks(), self.sim.now,
        )


def _deliveries_to_batch(rows: list[tuple]):
    """(time, mid, node, meta) bounce batches."""
    if not rows:
        return None
    t, mid, node, meta = zip(*rows)
    return (
        np.asarray(t, dtype=np.float64),
        np.asarray(mid, dtype=np.int64),
        np.asarray(node, dtype=np.int64),
        np.asarray(meta, dtype=np.int64),
    )


class _ShardNet(NetworkSimulator):
    """Worker-side event simulator: owns one region of the fabric."""

    runtime: _EventWorker  # attached right after construction
    _windowed = False

    def _schedule_hop(self, time: float, msg: Message, node: NodeId) -> None:
        rt = self.runtime
        idx = rt.index.idx
        if rt.owner[idx[node]] != rt.shard:
            rt.outbox.append((
                time, msg.mid, idx[node], idx[msg.src], idx[msg.dst],
                msg.nbytes, rt.enc_by_flow[msg.flow], _msg_meta(msg),
            ))
            return
        super()._schedule_hop(time, msg, node)

    def _hop(self, msg: Message, node: NodeId) -> None:
        if node == msg.dst:
            rt = self.runtime
            if (node, msg.flow) in rt.cb_keys or (node, None) in rt.cb_keys:
                i = rt.index.idx[node]
                rt.deliveries.append((self.sim.now, msg.mid, i, _msg_meta(msg)))
                if i >= rt.first_switch:
                    self.sim.stop_requested = True
            return
        super()._hop(msg, node)

    def _lose(self, msg: Message) -> None:
        rt = self.runtime
        if rt.owner[rt.index.idx[msg.src]] == rt.shard:
            # Local source host: the retransmission timeout fires in
            # this shard's own event loop.
            super()._lose(msg)
            return
        # Non-local source: replicate the host bookkeeping exactly,
        # then hand the timeout event to the source's owner through the
        # outbox (it fires at now + timeout >= now + lookahead, so it
        # is never late).
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
        idx = rt.index.idx
        rt.outbox.append((
            self.sim.now + self.retransmit_timeout_ns, msg.mid,
            idx[msg.src], idx[msg.src], idx[msg.dst], msg.nbytes,
            rt.enc_by_flow[msg.flow],
            _META_RETRANSMIT | (msg.retries << 2),
        ))


class _VectorWorker(_WorkerBase):
    """Vectorized worker shard (FIFO arbitration, no fault schedule).

    The single-hop-per-window invariant means a window's work is: take
    every pending arrival with ``time < stop``, route it one hop,
    chain the per-link serializations, and emit the next-hop arrivals.
    All of that runs as numpy array operations, with no event heap.
    Routing and the serialization chain are the sequential simulator's
    own FIFO-window kernel (:mod:`repro.network.windows`), called with
    the ``(time, mid)`` tie order; the sequential engine batches the
    same windows in-process, so a sharded run gains over it only by
    running shards in parallel.

    Bitwise parity with ``Link.transmit``: :func:`chain_links` computes
    ``max(t, busy) + nbytes/rate`` per row in per-link order, the
    scalar path's IEEE operations.
    """

    def __init__(self, coord: ShardedNetworkSimulator, shard: int) -> None:
        super().__init__(coord, shard)
        index = self.index
        self.now = coord.sim.now
        self.events = 0
        self.rate = index.link_rate.copy()
        self.latency = index.link_latency
        self.busy = self.snap_busy.copy()
        self.acc_bytes = np.zeros(index.n_links, np.float64)
        self.acc_msgs = np.zeros(index.n_links, np.int64)
        self.pend: tuple | None = None
        self.outbox: list[tuple] = []
        self.deliveries: list[tuple] = []
        self.has_cb = np.zeros(index.n_nodes, np.bool_)
        self._rebuild_cb()
        self.routes = VectorRoutes(index, self.router)
        self.dead_encs: set = {
            self.enc_by_flow[f]
            for f in coord._dead_flows
            if f in self.enc_by_flow
        }
        # Per-flow accounting [bytes_hops, messages, {link: bytes}].
        self.flow_acc: dict = {}
        self._bh = 0.0
        self._nmsg = 0
        # Checkpoint supervision: every mine-generated row this window.
        self.ck_mine: list = []

    # -- control hooks -------------------------------------------------
    def _rebuild_cb(self) -> None:
        self.has_cb[:] = False
        idx = self.index.idx
        for node, _flow in self.cb_keys:
            self.has_cb[idx[node]] = True
        self.switch_cb = bool(self.has_cb[self.first_switch:].any())

    def on_cb_change(self) -> None:
        self._rebuild_cb()

    def on_topology_ctl(self) -> None:
        self.routes.clear()

    def on_rate_ctl(self, a: NodeId, b: NodeId) -> None:
        idx = self.index.idx
        for sa, sb in ((a, b), (b, a)):
            li = int(self.index.link_ids(
                np.asarray([idx[sa]]), np.asarray([idx[sb]])
            )[0])
            self.rate[li] = self.links[li].bytes_per_ns

    def abandon_local(self, flow) -> None:
        self.dead_encs.add(self.enc_by_flow[flow])

    # -- window execution ----------------------------------------------
    def window(self, stop: float, batch, ctl) -> tuple:
        self.apply_controls(ctl)
        if batch is not None:
            self.pend = _concat_batches([self.pend, batch])
        stop = self._relay_stop(stop)
        start_events = self.events
        while self.pend is not None:
            take = self.pend[0] < stop
            if not take.any():
                break
            rows = _mask_batch(self.pend, take)
            rest = ~take
            self.pend = _mask_batch(self.pend, rest) if rest.any() else None
            self._process(rows)
        out = _concat_batches(self.outbox) if self.outbox else None
        self.outbox = []
        dels = _concat_batches(self.deliveries) if self.deliveries else None
        self.deliveries = []
        if self.pend is not None:
            next_t = float(self.pend[0].min())
            npend = int(self.pend[0].size)
        else:
            next_t, npend = None, 0
        ck = (
            _concat_batches(self.ck_mine) if self.ck_mine else None,
            None, self.link_flush(), self.busy_state(), None,
        )
        self.ck_mine = []
        return (
            "r", out, dels, self._stats_delta(), next_t, self.now,
            self.events - start_events, npend, ck, stop,
        )

    def _relay_stop(self, stop: float) -> float:
        """``stop``, or just past the earliest switch delivery before it
        (see ``first_switch``)."""
        if self.pend is None or not self.switch_cb:
            return stop
        t, node, dst = self.pend[0], self.pend[2], self.pend[4]
        relay = (
            (t < stop) & (node == dst) & (node >= self.first_switch)
            & self.has_cb[node]
        )
        if relay.any():
            return math.nextafter(float(t[relay].min()), _INF)
        return stop

    def _process(self, rows: tuple) -> None:
        t, mid, node, src, dst, nb, fl, meta = rows
        self.events += int(t.size)
        last = float(t.max())
        if last > self.now:
            self.now = last
        if self.dead_encs:
            alive = ~np.isin(
                fl, np.fromiter(self.dead_encs, np.int64, len(self.dead_encs))
            )
            if not alive.all():
                t, mid, node, src, dst, nb, fl, meta = (
                    c[alive] for c in (t, mid, node, src, dst, nb, fl, meta)
                )
                if t.size == 0:
                    return
        deliver = node == dst
        if deliver.any():
            bounce = deliver & self.has_cb[node]
            nbounce = int(bounce.sum())
            if nbounce:
                self.deliveries.append(
                    (t[bounce], mid[bounce], node[bounce], meta[bounce])
                )
                self.events -= nbounce  # executed coordinator-side
            keep = ~deliver
            if not keep.any():
                return
            t, mid, node, src, dst, nb, fl, meta = (
                c[keep] for c in (t, mid, node, src, dst, nb, fl, meta)
            )
        nxt = self.routes(node, dst)
        li = self.index.link_ids(node, nxt)
        fin = chain_links(li, t, nb / self.rate[li], mid, self.busy)
        np.add.at(self.acc_bytes, li, nb)
        np.add.at(self.acc_msgs, li, 1)
        self._bh += float(nb.sum())
        self._nmsg += int(nb.size)
        if (fl != 0).any():
            self._account_flows(li, nb, fl)
        arr = fin + self.latency[li]
        ow = self.owner[nxt]
        mine = ow == self.shard
        out_rows = (arr, mid, nxt, src, dst, nb, fl, meta)
        if mine.any():
            mine_rows = _mask_batch(out_rows, mine)
            self.ck_mine.append(mine_rows)
            self.pend = _concat_batches([self.pend, mine_rows])
        away = ~mine
        if away.any():
            self.outbox.append(_mask_batch(out_rows, away))

    def _account_flows(self, li, nb, fl) -> None:
        acc = self.flow_acc
        for i in np.nonzero(fl)[0]:
            enc = int(fl[i])
            stats = acc.get(enc)
            if stats is None:
                stats = acc[enc] = [0.0, 0, {}]
            nbytes = float(nb[i])
            stats[0] += nbytes
            stats[1] += 1
            key = int(li[i])
            stats[2][key] = stats[2].get(key, 0.0) + nbytes

    def _stats_delta(self):
        bh, nmsg = self._bh, self._nmsg
        flows = {enc: tuple(stats) for enc, stats in self.flow_acc.items()}
        self.flow_acc = {}
        self._bh = 0.0
        self._nmsg = 0
        if bh == 0.0 and nmsg == 0 and not flows:
            return None
        return (bh, nmsg, flows)

    # -- quiescence / recall -------------------------------------------
    def link_flush(self):
        nz = np.nonzero((self.acc_bytes != 0) | (self.acc_msgs != 0))[0]
        if nz.size == 0:
            return None
        out = (nz.astype(np.int64), self.acc_bytes[nz], self.acc_msgs[nz])
        self.acc_bytes = np.zeros_like(self.acc_bytes)
        self.acc_msgs = np.zeros_like(self.acc_msgs)
        return out

    def busy_state(self):
        changed = np.nonzero(
            (self.busy != self.snap_busy) & (self.link_owner == self.shard)
        )[0]
        self.snap_busy = self.busy.copy()
        if changed.size == 0:
            return None
        return (changed.astype(np.int64), self.busy[changed])

    def flush(self) -> tuple:
        # FIFO arbitration never materializes WFQ queues, so the peaks
        # slot is always empty — matching a sequential FIFO run.
        return ("fr", self.link_flush(), self.busy_state(), None, self.now)

    def recall(self) -> tuple:
        arrivals = []
        if self.pend is not None:
            t, mid, node, meta = (
                self.pend[0], self.pend[1], self.pend[2], self.pend[7]
            )
            order = np.lexsort((mid, t))
            # mid is creation order — it stands in for the heap seq.
            for i in order:
                arrivals.append((
                    float(t[i]), int(mid[i]), int(mid[i]), int(node[i]),
                    int(meta[i]),
                ))
        return (
            "rcr", arrivals, [], self._stats_delta(), self.link_flush(),
            self.busy_state(), None, self.now,
        )
