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

* **hash** — group a block's elements by slot, in arrival order, by
  counting over the table's ``n_slots`` (:func:`_group`; no comparison
  sort).  The first element of a slot claims it; a later one aggregates
  if its index equals the claimer's and spills otherwise.  Spills per
  packet are a ``bincount``; a packet's flushes are the steps of
  ``cumsum(spills) // spill_capacity`` within its block.  Table values
  are the claimers' values plus one ordered ``np.add.at`` of the
  matches, so every float add happens in the handler's order.
* **array** — one ordered ``np.add.at`` into a span-sized array, the
  handler's own storage layout, scanned for non-zeros.

Each block's drain (residual spill merge included) runs on the resolved
storage with the handler's own code, so the completing packet's hold
cost is exactly the handler's.  The sweep then only does lock
arithmetic: ``finish = max(t, lock_free_at) + hold``.

The commit hands the switch one :class:`SparseEgressRecord`: every
spill flush and drained block, packetized as the handler's
``_emit_sparse`` does, as flat arrays in egress order.  Nothing builds
a :class:`~repro.pspin.packets.SwitchPacket` unless ``switch.egress``
is read.

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
from repro.sparse.handlers import (
    L1_BUDGET_BYTES,
    PARENT_PORT,
    SparseAggregationHandler,
)
from repro.sparse.hash_storage import ELEMENT_BYTES, _slot_of, drain_table


def _group(keys: np.ndarray, bound: int):
    """``np.unique(keys, return_index=True, return_inverse=True)`` for
    keys in ``[0, bound)``, by counting over the key range instead of a
    comparison sort: ``(unique keys, first positions, inverse)``."""
    n = len(keys)
    first = np.full(bound, n, dtype=np.intp)
    np.minimum.at(first, keys, np.arange(n))
    unique = np.flatnonzero(first < n)
    rank = np.empty(bound, dtype=np.intp)
    rank[unique] = np.arange(len(unique))
    return unique.astype(keys.dtype), first[unique], rank[keys]


def _shards(lengths: np.ndarray, per_packet: int):
    """Split runs of ``lengths`` elements into packets of at most
    ``per_packet`` (an empty run is one empty packet); per packet, its
    run, its shard number and its run's shard count."""
    n_shards = np.maximum(1, -(-lengths // per_packet))
    run = np.repeat(np.arange(len(lengths)), n_shards)
    shard = np.arange(len(run)) - (np.cumsum(n_shards) - n_shards)[run]
    return run, shard, n_shards[run]


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]:starts[i] + counts[i]``, concatenated."""
    shift = starts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(counts.sum())


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
        entry, shard, n_shards = _shards(nnz, epp)
        pkt_times = times[entry] + shard * delta
        order = np.argsort(pkt_times, kind="stable")
        entry, shard, n_shards = entry[order], shard[order], n_shards[order]
        # Each packet's slice of its row, laid out in train order.
        counts = np.minimum(nnz[entry] - shard * epp, epp)
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        gather = _spans(workload.offsets[row[entry]] + shard * epp, counts)
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

    @property
    def payload_bytes(self) -> int:
        """Payload bytes of the whole train (indices and values)."""
        return int(self.indices.nbytes + self.values.nbytes)

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


class SparseEgressRecord(SparsePacketTrain):
    """One sparse train commit's egress, kept flat: the packets leaving
    toward the parent (``ports`` all ``PARENT_PORT``), in egress order.
    Each spill flush and each drained block is packetized on its own,
    as the handler's ``_emit_sparse`` does.  :meth:`expand` builds the
    ``(time, SwitchPacket)`` entries the per-packet path appends."""

    __slots__ = ()

    def __len__(self) -> int:
        return self.n_packets

    def expand(self) -> list[tuple[float, SwitchPacket]]:
        return list(zip(self.times.tolist(), self.packets()))


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
        #: Per block: its spill sequence (empty for array storage) and
        #: its drained result, each as (int32 indices, values).
        self.spills: list[tuple[np.ndarray, np.ndarray]] = []
        self.finals: list[tuple[np.ndarray, np.ndarray]] = []
        # The completing packet scans the drained elements (hash) or
        # the whole span (array).
        scanned = np.empty(len(ublocks), dtype=np.int64)
        starts = train.offsets[:-1][bo]
        for b, (lo, hi) in enumerate(zip(bstart.tolist(), bend.tolist())):
            c = counts[lo:hi]
            # The block's elements, arrival order.
            pos = _spans(starts[lo:hi], c)
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
        _keys, claimers, group = _group(slots, n_slots)
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
        indices, values, _residual = drain_table(keys, table, idx[left], vals[left])
        self.finals.append((indices, values))
        return len(indices)

    def _resolve_array(self, idx, vals) -> int:
        """One block's array inserts; returns the scanned span."""
        span = self.storage.span
        if len(idx) and idx.max() >= span:
            raise FastPathAbort("index outside the array span")
        acc = np.zeros(span, dtype=vals.dtype)
        np.add.at(acc, idx, vals)
        touched = np.flatnonzero(acc)
        self.spills.append((touched[:0].astype(np.int32), acc[:0]))
        self.finals.append((touched.astype(np.int32), acc[touched]))
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

    def commit(self) -> tuple[SparseEgressRecord, int]:
        """Apply kernel-side state; returns (egress record, bytes)."""
        commit_working_memory(self.switch, self.l1_times, self.l1_deltas)
        handler = self.handler
        handler._budget_used.update(self.budget_used)
        handler.blocks_completed += len(self.ublocks)
        handler.spilled_bytes_total += self.spilled_elements * ELEMENT_BYTES
        handler.peak_block_memory = max(handler.peak_block_memory, self.mem)
        record = self._egress()
        return record, int(record.wire_bytes.sum())

    def _egress(self) -> SparseEgressRecord:
        """Each emitting packet's flushes, then, if it completes its
        block, the drained result: runs of one flat source (every
        block's spills, then every drained block), each packetized as
        the handler's ``_emit_sparse``."""
        pieces = [*self.spills, *self.finals]
        lengths = np.array([len(i) for i, _v in pieces], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        emit = self.emit_order
        completes = np.isin(emit, self.last_bo)
        # Run k of emitting packet j: flush k, or the drained block.
        j, k, _ = _shards(self.flushes[emit] + completes, 1)
        j = emit[j]
        b = self.block_of_bo[j]
        final = k == self.flushes[j]
        drained = len(self.ublocks) + b
        cap = getattr(self.storage, "spill_capacity", 0)   # array: no flushes
        run_start = np.where(
            final, starts[drained], starts[b] + (self.first_flush[j] + k) * cap
        )
        run_len = np.where(final, lengths[drained], cap)
        epp = self.handler.config.elements_per_packet
        run, shard, shard_count = _shards(run_len, epp)
        counts = np.minimum(run_len[run] - shard * epp, epp)
        offsets = np.zeros(len(run) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        gather = _spans(run_start[run] + shard * epp, counts)
        return SparseEgressRecord(
            self.handler.config.allreduce_id,
            times=np.asarray(self.finish)[j][run],
            block_ids=self.ublocks[b][run],
            ports=np.full(len(run), PARENT_PORT),
            last_of_block=shard == shard_count - 1,
            shard_count=shard_count,
            indices=np.concatenate([i for i, _v in pieces])[gather],
            values=np.concatenate([v for _i, v in pieces])[gather],
            offsets=offsets,
        )


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
