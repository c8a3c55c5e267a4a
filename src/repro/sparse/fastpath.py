"""Packet-train fast path for the sparse handler (paper Sec. 7).

A :class:`SparsePacketTrain` is one sparse allreduce's ingress stream in
struct-of-arrays form; :class:`SparseTrainKernel` is the exact train
model of :class:`~repro.sparse.handlers.SparseAggregationHandler` that
the :class:`~repro.pspin.train.TrainRunner` sweep drives.

The kernel rests on one property of the model: inside a core subset
packets dispatch FIFO, and a block never leaves its subset, so each
block's insert order is its arrival order — fixed before any timing is
known.  The block lock only moves time; it never changes insert order.
So every insert of the train is resolved up front, a block at a time,
with a few numpy calls per block:

* **hash** — key a block's elements by slot, in arrival order.  The
  first element of a slot claims it; a later one aggregates if its
  index equals the claimer's and spills otherwise.  Spills per packet
  are a ``bincount``; a packet's flushes are the steps of
  ``cumsum(spills) // spill_capacity`` within its block.  Table values
  are the claimers' values plus one ordered ``np.add.at`` of the
  matches, so every float add happens in the handler's order.
* **array** — one ordered ``np.add.at`` into the touched positions.

Each block's drain (residual spill merge included) runs on the resolved
storage with the handler's own code, so the completing packet's hold
cost is exactly the handler's.  The sweep then only does lock
arithmetic: ``finish = max(t, lock_free_at) + hold``.

Anything the kernel cannot reproduce — a payload dtype other than the
handler's, a working-memory budget or L1 overflow, a malformed shard
structure — raises :class:`~repro.pspin.train.FastPathAbort`, and the
switch runs the train through the per-packet DES (which raises the
handler's ``MemoryError`` for an infeasible run).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pspin.packets import HEADER_BYTES, SwitchPacket
from repro.pspin.train import (
    FastPathAbort,
    TrainRunner,
    commit_working_memory,
    completion_order,
    register_train_kernel,
)
from repro.sparse.handlers import L1_BUDGET_BYTES, SparseAggregationHandler
from repro.sparse.hash_storage import ELEMENT_BYTES, _slot_of, drain_table


def _group(keys: np.ndarray, first: bool = False):
    """``np.unique(keys, return_inverse=True)`` by one stable sort (the
    hash-based ``np.unique`` is far slower on these sizes); with
    ``first``, also each group's first position in ``keys``."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    if first:
        return sorted_keys[head], inverse, order[head]
    return sorted_keys[head], inverse


class SparsePacketTrain:
    """A sparse packet burst in struct-of-arrays form.

    Packets are ordered by (arrival time, injection order) — the
    per-packet path's event pop order.  Packet ``i`` carries
    ``indices[offsets[i]:offsets[i + 1]]`` and the same slice of
    ``values``.
    """

    __slots__ = (
        "allreduce_id",
        "times",
        "block_ids",
        "ports",
        "last_of_block",
        "shard_count",
        "indices",
        "values",
        "offsets",
        "wire_bytes",
        "_packets",
    )

    def __init__(
        self,
        allreduce_id: int,
        times,
        block_ids,
        ports,
        last_of_block,
        shard_count,
        indices: np.ndarray,
        values: np.ndarray,
        offsets,
    ) -> None:
        self.allreduce_id = allreduce_id
        self.times = np.asarray(times, dtype=np.float64)
        self.block_ids = np.asarray(block_ids, dtype=np.int64)
        self.ports = np.asarray(ports, dtype=np.int64)
        self.last_of_block = np.asarray(last_of_block, dtype=bool)
        self.shard_count = np.asarray(shard_count, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        n = len(self.times)
        if not (
            len(self.block_ids) == len(self.ports) == len(self.last_of_block)
            == len(self.shard_count) == len(self.offsets) - 1 == n
        ):
            raise ValueError("per-packet arrays must have equal length")
        if len(indices) != len(values) or self.offsets[-1] != len(values):
            raise ValueError("offsets must cover the flat indices/values")
        self.indices = indices
        self.values = values
        #: Per-packet wire bytes: (index + value) per element + header.
        self.wire_bytes = (
            np.diff(self.offsets) * (indices.itemsize + values.itemsize)
            + HEADER_BYTES
        )
        self._packets: Optional[list[SwitchPacket]] = None

    @classmethod
    def from_workload(
        cls,
        allreduce_id: int,
        workload,
        times: np.ndarray,
        hosts: np.ndarray,
        blocks: np.ndarray,
        elements_per_packet: int,
        delta: float,
    ) -> "SparsePacketTrain":
        """Packetize a :class:`~repro.sparse.formats.SparseWorkload`
        along an arrival stream (``(times, hosts, blocks)`` sorted by
        ``(time, host)``, as from
        :func:`~repro.core.staggered.arrival_arrays`).

        Entry ``e`` of the stream sends its block as the shards of
        :func:`~repro.sparse.formats.packetize_block` (vectorized here),
        shard ``i`` at ``times[e] + i * delta``, injected in (entry,
        shard) order.
        """
        epp = elements_per_packet
        row = hosts.astype(np.int64) * workload.n_blocks + blocks
        nnz = workload.row_nnz()[row]
        n_shards = np.maximum(1, -(-nnz // epp))
        entry = np.repeat(np.arange(len(row)), n_shards)
        shard = np.arange(len(entry)) - (np.cumsum(n_shards) - n_shards)[entry]
        pkt_times = times[entry] + shard * delta
        order = np.argsort(pkt_times, kind="stable")
        entry, shard, n_shards = entry[order], shard[order], n_shards[entry][order]
        # Each packet's slice of its row, laid out in train order.
        counts = np.minimum(nnz[entry] - shard * epp, epp)
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        src = workload.offsets[row[entry]] + shard * epp
        gather = np.repeat(src - offsets[:-1], counts) + np.arange(offsets[-1])
        return cls(
            allreduce_id,
            times=pkt_times[order],
            block_ids=blocks[entry],
            ports=hosts[entry],
            last_of_block=shard == n_shards - 1,
            shard_count=n_shards,
            indices=workload.indices[gather],
            values=workload.values[gather],
            offsets=offsets,
        )

    @property
    def n_packets(self) -> int:
        return len(self.times)

    def packets(self) -> list[SwitchPacket]:
        """The equivalent :class:`SwitchPacket` objects, train order
        (built lazily; the fast path itself never needs them)."""
        if self._packets is None:
            aid = self.allreduce_id
            idx, vals, off = self.indices, self.values, self.offsets.tolist()
            self._packets = [
                SwitchPacket(
                    allreduce_id=aid,
                    block_id=b,
                    port=p,
                    payload=vals[lo:hi],
                    indices=idx[lo:hi],
                    last_of_block=last,
                    shard_count=count,
                )
                for b, p, last, count, lo, hi in zip(
                    self.block_ids.tolist(),
                    self.ports.tolist(),
                    self.last_of_block.tolist(),
                    self.shard_count.tolist(),
                    off[:-1],
                    off[1:],
                )
            ]
        return self._packets


class SparseTrainKernel:
    """Exact train model of :class:`SparseAggregationHandler`."""

    def __init__(self, handler, switch, train) -> None:
        if not isinstance(train, SparsePacketTrain):
            raise FastPathAbort("sparse handler needs a sparse train")
        cfg = handler.config
        if train.values.dtype != np.dtype(cfg.dtype_name):
            raise FastPathAbort("payload dtype != handler dtype")
        if handler.in_flight_blocks:
            raise FastPathAbort("handler has blocks in flight")
        self.handler = handler
        self.switch = switch
        self.train = train
        self.storage = handler._make_storage()
        self.mem = self.storage.memory_bytes
        self.budget = L1_BUDGET_BYTES
        if self.mem > self.budget:
            raise FastPathAbort("block storage exceeds the working-memory budget")
        cm = switch.config.cost_model
        self.dispatch_c = cm.handler_dispatch_cycles
        self.l1_free = [
            cl.l1.capacity_bytes - cl.l1.used_bytes for cl in switch.clusters
        ]
        self.l1_times: list[list[float]] = [[] for _ in switch.clusters]
        self.l1_deltas: list[list[int]] = [[] for _ in switch.clusters]
        self.budget_used = dict(handler._budget_used)
        self.block_cluster: dict[int, int] = {}
        self._resolve(cm)

    # -- insert resolution (timing-free) --------------------------------
    def _resolve(self, cm) -> None:
        """Resolve every insert and drain of the train, block by block
        ("bo": packets sorted by block, arrival order within a block)."""
        train = self.train
        cfg = self.handler.config
        n = train.n_packets
        bo = np.argsort(train.block_ids, kind="stable")
        blocks_bo = train.block_ids[bo]
        ublocks, bstart = np.unique(blocks_bo, return_index=True)
        bend = np.append(bstart[1:], n)
        self._check_shards(bo, blocks_bo, bstart, bend)
        counts = np.diff(train.offsets)[bo]
        hold = cm.sparse_insert_cycles(counts, cfg.storage)
        if int(train.wire_bytes.sum()) > self.switch.memories.l2_packet.capacity_bytes:
            # A train that could fill the input buffers: sweep it with
            # the cheap lower-bound service first, before resolving.
            bound = _ServiceBound(self.dispatch_c, hold.tolist(), ublocks, bstart)
            TrainRunner(self.switch, train, self.handler.name, bound).simulate()
        self.flushes = np.zeros(n, dtype=np.int64)
        self.first_flush = np.zeros(n, dtype=np.int64)
        #: Per block: its spill sequence (hash) and its drained result.
        self.spills: list[tuple[np.ndarray, np.ndarray]] = []
        self.finals: list[tuple[np.ndarray, np.ndarray]] = []
        # The completing packet scans the drained elements (hash) or
        # the whole span (array).
        scanned = np.empty(len(ublocks), dtype=np.int64)
        starts = train.offsets[:-1][bo]
        for b, (lo, hi) in enumerate(zip(bstart.tolist(), bend.tolist())):
            c = counts[lo:hi]
            # The block's elements, arrival order.
            pos = np.repeat(starts[lo:hi] - (np.cumsum(c) - c), c) + np.arange(c.sum())
            idx, vals = train.indices[pos], train.values[pos]
            if cfg.storage == "hash":
                scanned[b] = self._resolve_hash(idx, vals, c, lo, hi)
            else:
                scanned[b] = self._resolve_array(idx, vals)
        hold = hold + self.flushes * cm.spill_flush_cycles
        last_bo = bend - 1
        hold[last_bo] += scanned * cm.array_flush_cycles_per_element
        self.spilled_elements = sum(len(i) for i, _v in self.spills)
        self.bo = bo
        self.hold = hold.tolist()
        #: block id -> [cursor, first, last, lock_free_at] (bo positions).
        self.blocks = {
            b: [s, s, e - 1, 0.0]
            for b, s, e in zip(ublocks.tolist(), bstart.tolist(), bend.tolist())
        }
        self.block_of_bo = np.repeat(np.arange(len(ublocks)), bend - bstart)
        self.last_bo = last_bo
        self.ublocks = ublocks
        self.finish = [0.0] * n
        self.dispatch = [0.0] * n

    def _check_shards(self, bo, blocks_bo, bstart, bend) -> None:
        """Every block gets all ``n_children`` ports, each ending on its
        one ``last_of_block`` shard with the announced count: the block
        then completes exactly on its last packet, as the handler's
        shard counters would find."""
        train = self.train
        n_children = self.handler.config.n_children
        ports = train.ports[bo]
        if len(ports) and (ports.min() < 0 or ports.max() >= n_children):
            raise FastPathAbort("port outside the children range")
        grp = np.lexsort((np.arange(len(bo)), ports, blocks_bo))
        key = blocks_bo[grp] * n_children + ports[grp]
        ends = np.flatnonzero(np.diff(key, append=-1))
        is_end = np.zeros(len(grp), dtype=bool)
        is_end[ends] = True
        sizes = np.diff(ends, prepend=-1)
        if (
            not np.array_equal(train.last_of_block[bo][grp], is_end)
            or not np.array_equal(train.shard_count[bo][grp][ends], sizes)
            or len(ends) != len(bstart) * n_children
        ):
            raise FastPathAbort("shard structure does not complete every block")

    def _resolve_hash(self, idx, vals, counts, lo: int, hi: int) -> int:
        """One block's hash inserts; returns the drained element count."""
        storage = self.storage
        n_slots, cap = storage.n_slots, storage.spill_capacity
        slots = _slot_of(idx, n_slots)
        _keys, group, claimers = _group(slots, first=True)
        match = idx == idx[claimers[group]]
        later = np.ones(len(idx), dtype=bool)
        later[claimers] = False
        keys = np.full(n_slots, -1, dtype=np.int64)
        table = np.zeros(n_slots, dtype=vals.dtype)
        keys[slots[claimers]] = idx[claimers]
        table[slots[claimers]] = vals[claimers]
        hits = np.flatnonzero(match & later)
        np.add.at(table, slots[hits], vals[hits])
        spilled = np.flatnonzero(~match)
        packet_of = np.repeat(np.arange(len(counts)), counts)
        cum = np.cumsum(np.bincount(packet_of[spilled], minlength=len(counts)))
        before = np.append(0, cum[:-1])
        self.flushes[lo:hi] = cum // cap - before // cap
        self.first_flush[lo:hi] = before // cap
        self.spills.append((idx[spilled].astype(np.int32), vals[spilled]))
        # The buffer's residue (under one flush) rides with the result.
        left = spilled[len(spilled) // cap * cap :]
        indices, values, _residual = drain_table(
            keys, table, idx[left].tolist(), list(vals[left])
        )
        self.finals.append((indices, values))
        return len(indices)

    def _resolve_array(self, idx, vals) -> int:
        """One block's array inserts; returns the scanned span."""
        span = self.storage.span
        if len(idx) and idx.max() >= span:
            raise FastPathAbort("index outside the array span")
        touched, inverse = _group(idx)
        acc = np.zeros(len(touched), dtype=vals.dtype)
        np.add.at(acc, inverse, vals)
        keep = acc != 0
        self.finals.append((touched[keep].astype(np.int32), acc[keep]))
        return span

    # -- runner interface ----------------------------------------------
    def set_block_clusters(self, block_subset: dict[int, int]) -> None:
        self.block_cluster = block_subset

    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        state = self.blocks[block_id]
        j = state[0]
        state[0] = j + 1
        mem = self.mem
        if j == state[1]:
            # First packet: the handler's ``_record`` books the storage.
            cluster = self.block_cluster[block_id]
            used = self.budget_used.get(cluster, 0)
            if used + mem > self.budget or mem > self.l1_free[cluster]:
                raise FastPathAbort("block storage does not fit working memory")
            self.budget_used[cluster] = used + mem
            self.l1_free[cluster] -= mem
            self.l1_times[cluster].append(dispatch_t)
            self.l1_deltas[cluster].append(mem)
        t = start_t + self.dispatch_c
        lock = state[3]
        entry = lock if lock > t else t
        finish = entry + self.hold[j]
        state[3] = finish
        self.finish[j] = finish
        self.dispatch[j] = dispatch_t
        if j == state[2]:
            cluster = self.block_cluster[block_id]
            self.budget_used[cluster] -= mem
            self.l1_free[cluster] += mem
            self.l1_times[cluster].append(finish)
            self.l1_deltas[cluster].append(-mem)
        return finish, entry - t

    def finish_check(self) -> None:
        """Order the emitting packets as the DES pops their completion
        events (:func:`~repro.pspin.train.completion_order`)."""
        emit = np.flatnonzero(self.flushes > 0)
        emit = np.union1d(emit, self.last_bo)
        clusters = np.array([self.block_cluster[b] for b in self.ublocks.tolist()])
        order = completion_order(
            self.switch,
            self.train,
            np.asarray(self.finish)[emit],
            np.asarray(self.dispatch)[emit],
            self.bo[emit],
            clusters[self.block_of_bo[emit]],
        )
        self.emit_order = emit[order]

    def commit(self) -> tuple[list[tuple[float, SwitchPacket]], int]:
        """Apply kernel-side state; returns (egress emissions, bytes)."""
        commit_working_memory(self.switch, self.l1_times, self.l1_deltas)
        handler = self.handler
        handler._budget_used.update(self.budget_used)
        handler.blocks_completed += len(self.ublocks)
        handler.spilled_bytes_total += self.spilled_elements * ELEMENT_BYTES
        handler.peak_block_memory = max(handler.peak_block_memory, self.mem)
        emit_sparse = handler._emit_sparse
        out: list[tuple[float, SwitchPacket]] = []
        block_of = self.block_of_bo
        last = set(self.last_bo.tolist())
        for j in self.emit_order.tolist():
            t = self.finish[j]
            b = int(block_of[j])
            block_id = int(self.ublocks[b])
            packets: list[SwitchPacket] = []
            if self.flushes[j]:
                spill_idx, spill_vals = self.spills[b]
                cap = self.storage.spill_capacity
                first = int(self.first_flush[j])
                for k in range(first, first + int(self.flushes[j])):
                    chunk = slice(k * cap, (k + 1) * cap)
                    packets += emit_sparse(spill_idx[chunk], spill_vals[chunk], block_id)
            if j in last:
                packets += emit_sparse(*self.finals[b], block_id)
            out.extend((t, pkt) for pkt in packets)
        return out, sum(pkt.wire_bytes for _t, pkt in out)


class _ServiceBound:
    """Train kernel charging each packet only its dispatch and insert
    cycles, lock-free.  Every finish time is then a lower bound on the
    handler's (in a FIFO core subset, finish times only grow with
    service times), and so is the L2 occupancy: if even this sweep
    overflows the input buffers, the DES back-pressures, and the runner
    aborts before the inserts are resolved."""

    def __init__(self, dispatch_c: float, insert: list, ublocks, bstart) -> None:
        self.dispatch_c = dispatch_c
        self.insert = insert
        #: block id -> [cursor] (block-order position of its next packet).
        self.cursor = {b: [s] for b, s in zip(ublocks.tolist(), bstart.tolist())}

    def set_block_clusters(self, block_subset: dict[int, int]) -> None:
        pass

    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        cursor = self.cursor[block_id]
        j = cursor[0]
        cursor[0] = j + 1
        return start_t + self.dispatch_c + self.insert[j], 0.0

    def finish_check(self) -> None:
        pass


register_train_kernel(SparseAggregationHandler, SparseTrainKernel)
