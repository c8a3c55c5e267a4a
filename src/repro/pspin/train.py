"""Packet-train fast path: vectorized simulation of uncontended bursts.

A packet train is a struct-of-arrays description of a contiguous
same-allreduce packet burst (the whole ingress stream of one switch-level
allreduce in the common case): arrival times, block ids, ingress ports
and the payloads.  :class:`PacketTrain` carries a dense ``(hosts,
blocks, elements)`` payload cube; the sparse train
(:class:`repro.sparse.fastpath.SparsePacketTrain`) carries flat
``(indices, values)`` arrays with per-packet offsets and wire bytes.

When a train is injected into an otherwise idle switch
(:meth:`repro.pspin.switch.PsPINSwitch.inject_train`), the
:class:`TrainRunner` computes dispatch/aggregation/egress timing
analytically — one lean per-subset sweep over arrival offsets plus a
handler-specific *train kernel* — instead of pushing one heap event, one
``HandlerContext`` and one handler call per packet through the
discrete-event engine.  Aggregation itself runs as whole-train numpy
block reductions where the operator's algebra allows, and otherwise
in an order that gives the per-packet path's bits (its combine order,
or the tree's fixed structure), so payloads are **bitwise identical**.

The fast path is *pinned to parity*: it only engages when its timing
model provably coincides with the per-packet DES —

* the switch is pristine and the simulator queue empty (the train is the
  only traffic);
* hierarchical FCFS scheduling with ``subset_size == cores_per_cluster``
  (core subsets == clusters, so subsets share no mutable state: no
  remote-L1 penalties, per-subset i-caches and L1s);
* the L2 packet memory never fills (validated *post hoc* against the
  exact occupancy profile — the first would-be deferral aborts);
* no working-memory admission stalls, drops, or incomplete blocks;
* dense trains: no repeated (block, port) pair — a retransmission runs
  on the DES, which keeps the Sec. 4.1 children bitmaps.

The moment any of these fail, :func:`try_run_train` abandons the
(side-effect-free) fast computation and the caller transparently falls
back to per-packet injection — contention, admission-queueing and drops
always take the existing DES path.

Train kernels register themselves here via
:func:`register_train_kernel`: the dense aggregation designs in
:mod:`repro.core.fastpath`, the sparse hash/array handler in
:mod:`repro.sparse.fastpath`; :func:`train_kernel` imports a handler's
kernel module on the first train that handler sees.  Both sweeps follow
the event loop's FIFO dispatch rule: a subset's packets dispatch in
arrival order, packet i at ``max(arrival_i, earliest core-free
instant)`` on the free core with the lowest index, and a completion runs
before an arrival at its instant.
Neither keeps an arrival queue: while packets wait, every core of the
subset is busy, so the next core to free takes the oldest of them.  A
kernel whose handlers extend (the tree's merges) supplies its own
``sweep(runner, subset)``; the others share the runner's heap-free one,
one pass over the arrivals.  A train's ``wire_bytes`` is one integer
(dense: uniform packets) or a per-packet array (sparse); the L2
input-buffer accounting takes either.
"""

from __future__ import annotations

import os
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.pspin.packets import HEADER_BYTES, SwitchPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.pspin.switch import PsPINSwitch


class FastPathAbort(Exception):
    """Internal: the fast path cannot reproduce the DES for this train."""


#: handler type -> kernel factory ``f(handler, switch, train)``.
TRAIN_KERNELS: dict[type, Callable] = {}


#: Handler module -> the module registering its handlers' kernels,
#: imported on the first train one of those handlers sees.
_KERNEL_MODULES = {
    "repro.core.multi_buffer": "repro.core.fastpath",
    "repro.core.tree_buffer": "repro.core.fastpath",
    "repro.sparse.handlers": "repro.sparse.fastpath",
}


def register_train_kernel(handler_cls: type, factory: Callable) -> None:
    """Register the train kernel for one handler class."""
    TRAIN_KERNELS[handler_cls] = factory


def train_kernel(handler_cls: type) -> Optional[Callable]:
    """The kernel factory registered for ``handler_cls`` (None: the
    handler has no fast path)."""
    factory = TRAIN_KERNELS.get(handler_cls)
    if factory is None and handler_cls.__module__ in _KERNEL_MODULES:
        __import__(_KERNEL_MODULES[handler_cls.__module__])
        factory = TRAIN_KERNELS.get(handler_cls)
    return factory


def fast_path_env_enabled() -> bool:
    """Process-wide kill switch: ``REPRO_FASTPATH=0`` disables the fast
    path everywhere (the parity suite and the benchmark harness use it
    to drive the per-packet baseline)."""
    return os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "no")


class PacketTrain:
    """A same-allreduce packet burst in struct-of-arrays form.

    ``data`` is the dense payload cube ``(hosts, blocks, elements)``;
    packet ``i`` carries ``data[ports[i], block_ids[i]]`` (a view — the
    same arrays the per-packet injection path would carry).
    """

    __slots__ = ("allreduce_id", "times", "block_ids", "ports", "data", "_packets")

    def __init__(self, allreduce_id: int, times, block_ids, ports, data) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.block_ids = np.asarray(block_ids, dtype=np.int64)
        self.ports = np.asarray(ports, dtype=np.int64)
        if not (len(self.times) == len(self.block_ids) == len(self.ports)):
            raise ValueError("times/block_ids/ports must have equal length")
        if data.ndim != 3:
            raise ValueError("data must be (hosts, blocks, elements)")
        self.allreduce_id = allreduce_id
        self.data = data
        self._packets: Optional[list[SwitchPacket]] = None

    @property
    def n_packets(self) -> int:
        return len(self.times)

    @property
    def payload_bytes(self) -> int:
        """Payload bytes of the whole train."""
        return int(self.data.nbytes)

    @property
    def payload_nbytes(self) -> int:
        """Per-packet payload bytes (uniform across the train)."""
        return int(self.data.shape[2] * self.data.dtype.itemsize)

    @property
    def wire_bytes(self) -> int:
        return self.payload_nbytes + HEADER_BYTES

    def packets(self) -> list[SwitchPacket]:
        """The equivalent :class:`SwitchPacket` objects, injection order
        (built lazily; the fast path itself never needs them)."""
        if self._packets is None:
            data = self.data
            aid = self.allreduce_id
            self._packets = [
                SwitchPacket(
                    allreduce_id=aid,
                    block_id=b,
                    port=p,
                    payload=data[p, b],
                )
                for b, p in zip(self.block_ids.tolist(), self.ports.tolist())
            ]
        return self._packets


def try_run_train(switch: "PsPINSwitch", train: PacketTrain) -> bool:
    """Attempt the analytic fast path; True iff it committed.

    Never mutates the switch unless the whole train validated, so the
    caller can fall back to per-packet injection on False.
    """
    from repro.pspin.scheduler import HierarchicalFCFSScheduler

    if train.n_packets == 0:
        return False
    sim = switch.sim
    if sim.peek_time() is not None or sim.now > float(train.times[0]):
        return False                      # other traffic in flight
    scheduler = switch.scheduler
    if not isinstance(scheduler, HierarchicalFCFSScheduler):
        return False
    if scheduler.subset_size != switch.config.cores_per_cluster:
        return False                      # subsets would share a cluster
    if (
        switch._first_arrival is not None
        or switch.telemetry.packets_in.value
        or scheduler.queued()
        or switch._admission_queue
        or scheduler._block_to_subset
    ):
        return False                      # not pristine
    handler_name = switch.allreduces.get(train.allreduce_id)
    if handler_name is None:
        return False                      # bypass: nothing to aggregate
    handler = switch._handlers.get(handler_name)
    if handler is None:
        return False
    factory = train_kernel(type(handler))
    if factory is None:
        return False
    try:
        kernel = factory(handler, switch, train)
        runner = TrainRunner(switch, train, handler_name, kernel)
        runner.simulate()
    except FastPathAbort:
        return False
    runner.commit()
    return True


#: ``set`` iteration order of subset ids is ascending while every id is
#: below the smallest hash table (8 slots); the DES's scheduler visits
#: its active subsets in that order.
ORDERED_SUBSETS = 8


def completion_order(switch, train, finish, dispatch, train_pos, subset) -> np.ndarray:
    """Order emitting handlers as the DES pops their completion events:
    by finish time, then by dispatch order.  A packet dispatched at its
    own arrival instant was dispatched by its arrival event; a queued
    one by the first completion event at that instant (priority 0:
    earlier), which visits the subsets in ascending id order and each
    subset's queue FIFO.

    Arrays are per emitting handler: ``train_pos`` is its packet's train
    position and ``subset`` its block's subset.  Returns the permutation;
    aborts where the DES order would depend on ``set`` iteration."""
    queued = dispatch != train.times[train_pos]
    subset = np.where(queued, subset, 0)
    order = np.lexsort((train_pos, subset, ~queued, dispatch, finish))
    if switch.scheduler.n_subsets > ORDERED_SUBSETS:
        f, d, q, s = finish[order], dispatch[order], queued[order], subset[order]
        tie = (f[1:] == f[:-1]) & (d[1:] == d[:-1]) & q[1:] & q[:-1]
        if np.any(tie & (s[1:] != s[:-1])):
            raise FastPathAbort("egress order depends on set iteration order")
    return order


def commit_working_memory(switch, l1_times, l1_deltas) -> None:
    """Book a kernel's per-cluster L1 events (call-order time and delta
    lists) into the clusters' L1 regions and the working-memory gauge.

    Subsets are clusters and run in order, so cluster order is the
    order the handlers' working-memory calls were made in."""
    wm = switch.telemetry.working_memory_bytes
    for cluster, times, deltas in zip(switch.clusters, l1_times, l1_deltas):
        replay_region_profile(cluster.l1, deltas)
        wm.extend(times, deltas)


def replay_region_profile(region, deltas: list[int]) -> None:
    """Load a *call-order* sequence of byte deltas into a MemoryRegion,
    leaving the used/peak bytes the per-packet path would (handlers
    book releases eagerly at future timestamps, so call order, not
    time order, is what the region saw)."""
    if not deltas:
        return
    used = np.cumsum(deltas, dtype=np.int64) + region.used_bytes
    region.used_bytes = int(used[-1])
    region.peak_bytes = max(region.peak_bytes, int(used.max()))


class _SubsetState:
    """Mini-DES state for one core subset (== one cluster)."""

    __slots__ = (
        "subset",
        "idx",
        "arr_times",
        "arr_blocks",
        "arr_ports",
        "busy",
        "handlers_run",
        "busy_cycles",
        "warm",
    )

    def __init__(self, subset: int, n_slots: int, warm: bool) -> None:
        self.subset = subset
        #: Train positions of this subset's packets, arrival order.
        self.idx = np.empty(0, dtype=np.int64)
        self.arr_times: list[float] = []
        self.arr_blocks: list[int] = []
        self.arr_ports: list[int] = []
        self.busy = [0.0] * n_slots
        self.handlers_run = [0] * n_slots
        self.busy_cycles = [0.0] * n_slots
        self.warm = warm


class TrainRunner:
    """Exact per-subset replication of the switch event loop for one
    uncontended train, with the per-event Python machinery stripped.

    The simulation phase computes timing and telemetry only (payload
    values never affect dense handler timing); the payload reductions
    run once, vectorized, at commit time.
    """

    def __init__(
        self, switch: "PsPINSwitch", train: PacketTrain, handler_name: str, kernel
    ) -> None:
        self.switch = switch
        self.train = train
        self.handler_name = handler_name
        self.kernel = kernel
        cfg = switch.config
        self.n_subsets = switch.scheduler.n_subsets
        self.n_slots = cfg.subset_size
        self.icache_fill = cfg.cost_model.icache_fill_cycles
        # Outputs of the simulation phase --------------------------------
        self.icache_fills = 0
        self.handler_invocations = 0
        self.busy_total = 0.0
        self.wait_total = 0.0
        self.l2_release_times: list[float] = []
        self.last_completion = 0.0
        self.end_time = 0.0
        self.subsets: list[_SubsetState] = []
        self.block_subset: dict[int, int] = {}
        self.n_blocks_seen = 0

    # ------------------------------------------------------------------
    def _assign_subsets(self) -> None:
        """Round-robin block -> subset on first sight, arrival order
        (exactly :class:`HierarchicalFCFSScheduler`'s policy)."""
        switch = self.switch
        train = self.train
        self.subsets = [
            _SubsetState(
                s, self.n_slots, switch.clusters[s].icache_warm(self.handler_name)
            )
            for s in range(self.n_subsets)
        ]
        blocks = train.block_ids
        # First-sight order == order of first occurrence in the stream.
        _uniq, first_pos, inverse = np.unique(
            blocks, return_index=True, return_inverse=True
        )
        rank_by_uniq = np.empty(len(first_pos), dtype=np.int64)
        rank_by_uniq[np.argsort(first_pos, kind="stable")] = np.arange(len(first_pos))
        packet_subset = rank_by_uniq[inverse] % self.n_subsets
        self.n_blocks_seen = len(first_pos)
        self.block_subset = {
            int(b): int(rank_by_uniq[i]) % self.n_subsets
            for i, b in enumerate(_uniq.tolist())
        }
        # Stable grouping by subset keeps each group in stream order.
        grouped = np.argsort(packet_subset, kind="stable")
        bounds = np.searchsorted(packet_subset[grouped], np.arange(self.n_subsets + 1))
        for s, st in enumerate(self.subsets):
            idx = grouped[bounds[s] : bounds[s + 1]]
            if len(idx):
                st.idx = idx
                st.arr_times = train.times[idx].tolist()
                st.arr_blocks = blocks[idx].tolist()
                st.arr_ports = train.ports[idx].tolist()

    # ------------------------------------------------------------------
    def simulate(self) -> None:
        self._assign_subsets()
        self.kernel.set_block_clusters(self.block_subset)
        # Kernels whose handlers extend (tree merges) own their sweep.
        kernel_sweep = getattr(self.kernel, "sweep", None)
        sweep = self._sweep if kernel_sweep is None else partial(kernel_sweep, self)
        done: list[np.ndarray] = []
        done_bytes = 0
        capacity = self.switch.memories.l2_packet.capacity_bytes
        for st in self.subsets:
            if not st.arr_times:
                continue
            sweep(st)
            done.append(st.idx)
            done_bytes += int(self._wire(st.idx).sum())
            # Incremental lower-bound check: the simulated subsets'
            # packets alone (a pointwise lower bound on occupancy) must
            # already fit the L2 input buffers — a contended train
            # aborts after a fraction of the sweep instead of at the
            # end.  Skipped while the simulated packets could not fill
            # the buffers even if they all overlapped.
            if done_bytes > capacity:
                self._check_l2(np.concatenate(done))
        self.kernel.finish_check()
        self._validate_l2()
        self.end_time = max(
            float(self.train.times[-1]),
            max(self.l2_release_times, default=0.0),
            self.last_completion,
        )

    def _sweep(self, st: _SubsetState) -> None:
        """Queue-free sweep for kernels whose handlers never extend.

        A completion only frees its core, and the event loop dispatches
        FIFO: packet i starts at ``max(arrival_i, min(busy))`` on the
        lowest-index core free then (a completion runs before an arrival
        at its instant).  No queue is kept: while packets wait, every
        core is busy, so the next free core goes to the oldest of them.
        """
        kernel_process = self.kernel.process
        busy = st.busy
        handlers_run = st.handlers_run
        busy_cycles = st.busy_cycles
        slot_range = range(self.n_slots)
        l2_release = self.l2_release_times
        last_completion = self.last_completion
        icache_fill = self.icache_fill
        busy_total = 0.0
        wait_total = 0.0
        warm = st.warm
        for now, block_id, port in zip(st.arr_times, st.arr_blocks, st.arr_ports):
            first_free = min(busy)
            if first_free > now:
                # Every core is busy: the packet waits for the first
                # completion, which hands it the core it frees.
                now = first_free
                slot = busy.index(first_free)
            else:
                for slot in slot_range:
                    if busy[slot] <= now:
                        break
            start = now
            if not warm:
                warm = True
                start += icache_fill
                self.icache_fills += 1
            finish, wait = kernel_process(block_id, port, now, start)
            busy[slot] = finish
            handlers_run[slot] += 1
            held = finish - now
            busy_cycles[slot] += held
            busy_total += held
            wait_total += wait
            l2_release.append(finish)
            if finish > last_completion:
                last_completion = finish
        st.warm = warm
        self.handler_invocations += len(st.arr_times)
        self.busy_total += busy_total
        self.wait_total += wait_total
        self.last_completion = last_completion

    # ------------------------------------------------------------------
    def _wire(self, idx) -> np.ndarray:
        """Wire bytes of the packets at train positions ``idx``."""
        wire = self.train.wire_bytes
        if np.ndim(wire):
            return wire[idx]
        return np.broadcast_to(np.int64(wire), len(idx))

    def _l2_profile(self, arrivals, arrival_wire, releases, release_wire):
        """L2 occupancy after each arrival and release, in event order."""
        n_a, n_r = len(arrivals), len(releases)
        times = np.concatenate([arrivals, np.asarray(releases)])
        deltas = np.concatenate([
            np.broadcast_to(arrival_wire, n_a),
            -np.broadcast_to(release_wire, n_r),
        ]).astype(np.int64)
        # Releases (priority 0) settle before same-instant arrivals.
        pri = np.concatenate(
            [np.ones(n_a, dtype=np.int8), np.zeros(n_r, dtype=np.int8)]
        )
        order = np.lexsort((pri, times))
        return np.cumsum(deltas[order])

    def _check_l2(self, idx) -> None:
        """L2 check over the packets at train positions ``idx``: the
        swept subsets' packets, in sweep order.  Releases are booked in
        that same order (uniform trains are order-free; a per-packet
        wire train runs the FIFO sweep, which releases each subset's
        packets in arrival order)."""
        wire = self._wire(idx)
        occ = self._l2_profile(
            self.train.times[idx], wire, self.l2_release_times, wire
        )
        if int(occ.max(initial=0)) > self.switch.memories.l2_packet.capacity_bytes:
            raise FastPathAbort("L2 packet memory would back-pressure")

    def _validate_l2(self) -> None:
        """Exact L2 packet-memory occupancy check: the DES would defer
        (or drop) the first arrival that does not fit; any overshoot
        invalidates the analytic timing, so the fast path aborts."""
        n = self.train.n_packets
        if len(self.l2_release_times) != n:
            raise FastPathAbort("not every packet completed")
        swept = np.concatenate([st.idx for st in self.subsets])
        occ = self._l2_profile(
            self.train.times,
            self.train.wire_bytes,
            self.l2_release_times,
            self._wire(swept),
        )
        if int(occ.max(initial=0)) > self.switch.memories.l2_packet.capacity_bytes:
            raise FastPathAbort("L2 packet memory would back-pressure")
        self._l2_occ = occ

    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Apply the computed run to the switch (telemetry, memories,
        cores, egress) and execute the payload programs."""
        switch = self.switch
        train = self.train
        tel = switch.telemetry
        n = train.n_packets

        tel.packets_in.add(n)
        tel.bytes_in.add(int(self._wire(np.arange(n)).sum()))
        tel.handler_invocations.add(self.handler_invocations)
        tel.busy_cycles.add(self.busy_total)
        tel.contention_wait_cycles.add(self.wait_total)
        tel.icache_fills.add(self.icache_fills)

        # L2 region accounting (the input buffers) ----------------------
        l2 = switch.memories.l2_packet
        occ = self._l2_occ
        l2.peak_bytes = max(l2.peak_bytes, int(occ.max(initial=0)))
        l2.used_bytes = int(occ[-1]) if len(occ) else 0

        # Cores + i-caches ---------------------------------------------
        for st in self.subsets:
            cluster = switch.clusters[st.subset]
            if st.warm:
                cluster.icache_load(self.handler_name)
            for s, hpu in enumerate(cluster.hpus):
                hpu.busy_until = max(hpu.busy_until, st.busy[s])
                hpu.handlers_run += st.handlers_run[s]
                hpu.busy_cycles += st.busy_cycles[s]

        # Scheduler bookkeeping (all blocks mapped, then released).
        switch.scheduler._next_subset = self.n_blocks_seen % self.n_subsets

        # Kernel state: L1 accounting, working-memory gauge, handler
        # counters, and the payload programs -> egress.
        egress, out_bytes = self.kernel.commit()
        switch._commit_egress(egress)
        tel.packets_out.add(len(egress))
        tel.bytes_out.add(out_bytes)

        switch._first_arrival = float(train.times[0])
        switch._last_completion = self.last_completion
        sim = switch.sim
        if self.end_time > sim.now:
            sim.now = self.end_time
