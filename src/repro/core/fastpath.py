"""Train kernels: exact fast-path models of the dense aggregation designs.

Each kernel replicates, packet for packet, the cycle arithmetic its
handler performs under the per-packet DES — dispatch overhead, buffer
management, critical-section waits, tree climbs — while the
:class:`repro.pspin.train.TrainRunner` replicates the event loop around
it.  Payload math is deferred to commit time and executed as *programs*:

* **vectorized** — integer payloads under a builtin operator (by
  identity, :func:`~repro.core.ops.order_free_ufunc`) reduce as one
  whole-train numpy block operation (wrapping integer arithmetic is
  order-insensitive, so this is bitwise identical to any combine order
  the DES would have used);
* **order replay** — float payloads and custom operators re-execute the
  exact combine sequence the DES would run (lock-acquisition order for
  single/multi buffers, the fixed merge structure for trees), which is
  what keeps fp32 results — including reproducible-mode tree sums —
  bitwise identical.

Any situation a kernel cannot reproduce exactly (working-memory
admission stalls, L1 exhaustion, incomplete blocks, payload/config dtype
mismatch) raises :class:`~repro.pspin.train.FastPathAbort`, and the
switch transparently re-runs the train through the per-packet path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.core.handler_base import PARENT_PORT
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.ops import order_free_ufunc
from repro.core.single_buffer import SingleBufferHandler
from repro.core.tree_buffer import PairTree, TreeAggregationHandler
from repro.pspin.packets import SwitchPacket
from repro.pspin.train import (
    FastPathAbort,
    PacketTrain,
    commit_working_memory,
    register_train_kernel,
)

_INF = float("inf")


class _DenseKernelBase:
    """Shared state and cost precomputation for dense train kernels."""

    worst_case_buffers = 1
    #: Kernels whose handlers never extend (no tree climbs) let the
    #: runner use its heap-free sweep.
    has_continuations = False

    def __init__(self, handler, switch, train: PacketTrain, handler_name: str) -> None:
        self.handler = handler
        self.switch = switch
        self.train = train
        self.handler_name = handler_name
        config = handler.config
        self.config = config
        if train.data.dtype != np.dtype(config.dtype_name):
            # Buffer nbytes would diverge from payload nbytes and with
            # them every combine cost; the DES handles it, we don't.
            raise FastPathAbort("payload dtype != handler dtype")
        cm = switch.config.cost_model
        nbytes = train.payload_nbytes
        self.nbytes = nbytes
        self.n_children = config.n_children
        self.dispatch_c = cm.handler_dispatch_cycles
        self.mgmt_c = cm.buffer_mgmt_cycles
        self.combine_c = (
            cm.aggregation_cycles(nbytes, config.dtype) * config.op.cycles_factor
        )
        self.copy_c = cm.copy_cycles(nbytes)
        self.admission_need = (self.worst_case_buffers + 1) * max(nbytes, 1)
        # Eager per-cluster L1 accounting (call-order, like BufferPool):
        # each cluster's events as flat time and delta lists.
        self.l1_free = [
            cl.l1.capacity_bytes - cl.l1.used_bytes for cl in switch.clusters
        ]
        self.l1_times: list[list[float]] = [[] for _ in switch.clusters]
        self.l1_deltas: list[list[int]] = [[] for _ in switch.clusters]
        self.blocks: dict[int, object] = {}
        #: block -> home cluster; filled by the runner (subset == cluster).
        self.block_cluster: dict[int, int] = {}
        self.blocks_completed = 0
        self.duplicates = 0
        #: (finish_time, block_id) in completion order.
        self.emissions: list[tuple[float, int]] = []
        self.ufunc = order_free_ufunc(config.op, train.data.dtype)
        self.vectorized = self.ufunc is not None

    def set_block_clusters(self, block_subset: dict[int, int]) -> None:
        """Runner-provided block -> subset map (subsets are clusters
        under the fast path's eligibility rules)."""
        self.block_cluster = block_subset

    # -- L1 bookkeeping -------------------------------------------------
    def _l1_alloc(self, cluster: int, t: float) -> None:
        self.l1_free[cluster] -= self.nbytes
        self.l1_times[cluster].append(t)
        self.l1_deltas[cluster].append(self.nbytes)

    def _l1_release(self, cluster: int, t: float) -> None:
        self.l1_free[cluster] += self.nbytes
        self.l1_times[cluster].append(t)
        self.l1_deltas[cluster].append(-self.nbytes)

    # -- runner interface ----------------------------------------------
    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        raise NotImplementedError

    def resume(self, cont, now: float):
        raise FastPathAbort("kernel does not support continuations")

    def finish_check(self) -> None:
        if self.blocks:
            raise FastPathAbort("train left incomplete blocks behind")

    def commit(self) -> tuple[list[tuple[float, SwitchPacket]], int]:
        """Apply kernel-side state; returns (egress emissions, bytes)."""
        commit_working_memory(self.switch, self.l1_times, self.l1_deltas)
        handler = self.handler
        handler.blocks_completed += self.blocks_completed
        handler.duplicates_dropped += self.duplicates
        payloads = self._build_payloads()
        out: list[tuple[float, SwitchPacket]] = []
        ports = self.config.multicast_ports
        aid = self.config.allreduce_id
        # Sorting the (time, block) pairs here — before port expansion,
        # which emits ports in ascending order — leaves the expanded
        # list in the runner's (time, block, port) egress order.
        self.emissions.sort()
        for t, block_id in self.emissions:
            payload = payloads[block_id]
            if ports is None:
                out.append((t, SwitchPacket(aid, block_id, PARENT_PORT, payload)))
            else:
                # One block copy per egress port (what the DES emits,
                # materialized as rows of a single repeated matrix).
                rows = np.repeat(payload[None, :], len(ports), axis=0)
                out.extend(
                    (t, SwitchPacket(aid, block_id, p, rows[i]))
                    for i, p in enumerate(ports)
                )
        # Dense emissions are uniform: one aggregated block per packet.
        from repro.pspin.packets import HEADER_BYTES

        out_bytes = len(out) * (self.nbytes + HEADER_BYTES)
        return out, out_bytes

    # -- payload programs ----------------------------------------------
    def _build_payloads(self) -> dict[int, np.ndarray]:
        raise NotImplementedError

    def _vector_reduce(self) -> dict[int, np.ndarray]:
        """One whole-train block reduction (int dtypes, builtin ops)."""
        data = self.train.data
        reduced = self.ufunc.reduce(data, axis=0, dtype=data.dtype)
        return {block_id: reduced[block_id] for _t, block_id in self.emissions}


# ----------------------------------------------------------------------
# Single buffer (Sec. 6.1)
# ----------------------------------------------------------------------
class _SingleRecord:
    __slots__ = ("seen", "count", "lock_free", "allocated", "order")

    def __init__(self) -> None:
        self.seen = 0
        self.count = 0
        self.lock_free = 0.0
        self.allocated = False
        self.order: list[int] = []


class SingleBufferKernel(_DenseKernelBase):
    """Exact train model of :class:`SingleBufferHandler` (M = 1)."""

    worst_case_buffers = 1

    def __init__(self, handler, switch, train, handler_name) -> None:
        super().__init__(handler, switch, train, handler_name)
        self._orders: dict[int, list[int]] = {}

    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        cluster = self.block_cluster[block_id]
        rec = self.blocks.get(block_id)
        if rec is None:
            if self.l1_free[cluster] < self.admission_need:
                raise FastPathAbort("working-memory admission stall")
            rec = _SingleRecord()
            self.blocks[block_id] = rec
        t = start_t + self.dispatch_c
        bit = 1 << port
        if rec.seen & bit:
            self.duplicates += 1
            return t, 0.0, None
        rec.seen |= bit
        rec.count += 1
        if not rec.allocated:
            t += self.mgmt_c
            self._l1_alloc(cluster, dispatch_t)
            rec.allocated = True
        entry = rec.lock_free if rec.lock_free > t else t
        wait = entry - t
        finish = entry + self.combine_c
        rec.lock_free = finish
        rec.order.append(port)
        if rec.count == self.n_children:
            self.emissions.append((finish, block_id))
            self._l1_release(cluster, finish)
            self.blocks_completed += 1
            self._orders[block_id] = rec.order
            del self.blocks[block_id]
        return finish, wait, None

    def _build_payloads(self) -> dict[int, np.ndarray]:
        if self.vectorized:
            return self._vector_reduce()
        data = self.train.data
        combine = self.config.op.combine_into
        out: dict[int, np.ndarray] = {}
        for block_id, order in self._orders.items():
            acc = data[order[0], block_id].copy()
            for port in order[1:]:
                combine(acc, data[port, block_id])
            out[block_id] = acc
        return out


# ----------------------------------------------------------------------
# Multi buffer (Sec. 6.2)
# ----------------------------------------------------------------------
class _MultiBuf:
    __slots__ = ("free_at", "filled", "order")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.filled = False
        self.order: list[int] = []


class _MultiRecord:
    __slots__ = ("seen", "count", "buffers")

    def __init__(self) -> None:
        self.seen = 0
        self.count = 0
        self.buffers: list[_MultiBuf] = []


class MultiBufferKernel(_DenseKernelBase):
    """Exact train model of :class:`MultiBufferHandler` (M = B)."""

    def __init__(self, handler, switch, train, handler_name) -> None:
        self.worst_case_buffers = handler.n_buffers
        super().__init__(handler, switch, train, handler_name)
        self.n_buffers = handler.n_buffers
        #: block -> (per-buffer combine orders, completing buffer index,
        #: fold order) for the replay program.
        self._programs: dict[int, tuple[list[list[int]], int, list[int]]] = {}

    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        cluster = self.block_cluster[block_id]
        rec = self.blocks.get(block_id)
        if rec is None:
            if self.l1_free[cluster] < self.admission_need:
                raise FastPathAbort("working-memory admission stall")
            rec = _MultiRecord()
            self.blocks[block_id] = rec
        t = start_t + self.dispatch_c
        bit = 1 << port
        if rec.seen & bit:
            self.duplicates += 1
            return t, 0.0, None
        rec.seen |= bit
        rec.count += 1
        # _pick_buffer: first free, else allocate (under the B budget),
        # else the earliest-freeing one (degrading on L1 exhaustion).
        buffers = rec.buffers
        chosen: Optional[_MultiBuf] = None
        for buf in buffers:
            if buf.free_at <= t:
                chosen = buf
                break
        if chosen is None:
            if len(buffers) < self.n_buffers:
                t += self.mgmt_c
                if self.l1_free[cluster] >= self.nbytes:
                    self._l1_alloc(cluster, dispatch_t)
                    chosen = _MultiBuf()
                    buffers.append(chosen)
                elif not buffers:
                    raise FastPathAbort("L1 cannot fit any aggregation buffer")
            if chosen is None:
                chosen = min(buffers, key=lambda b: b.free_at)
        entry = chosen.free_at if chosen.free_at > t else t
        wait = entry - t
        finish = entry + self.combine_c
        chosen.free_at = finish
        chosen.filled = True
        chosen.order.append(port)
        if rec.count != self.n_children:
            return finish, wait, None
        # Completing handler folds the other filled buffers (list order)
        # into its own, waiting out writers still in their sections.
        fold_order: list[int] = []
        chosen_idx = buffers.index(chosen)
        t_fold = finish
        for i, other in enumerate(buffers):
            if other is chosen or not other.filled:
                continue
            entry2 = other.free_at if other.free_at > t_fold else t_fold
            wait += entry2 - t_fold
            t_fold = entry2 + self.combine_c
            other.free_at = t_fold
            fold_order.append(i)
        self.emissions.append((t_fold, block_id))
        for _ in buffers:
            self._l1_release(cluster, t_fold)
        self.blocks_completed += 1
        self._programs[block_id] = (
            [b.order for b in buffers],
            chosen_idx,
            fold_order,
        )
        del self.blocks[block_id]
        return t_fold, wait, None

    def _build_payloads(self) -> dict[int, np.ndarray]:
        if self.vectorized:
            return self._vector_reduce()
        data = self.train.data
        combine = self.config.op.combine_into
        out: dict[int, np.ndarray] = {}
        for block_id, (orders, chosen_idx, fold_order) in self._programs.items():
            accs = []
            for order in orders:
                acc = data[order[0], block_id].copy()
                for port in order[1:]:
                    combine(acc, data[port, block_id])
                accs.append(acc)
            result = accs[chosen_idx]
            for i in fold_order:
                combine(result, accs[i])
            out[block_id] = result
        return out


# ----------------------------------------------------------------------
# Tree (Sec. 6.3)
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _flat_tree(n_leaves: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:class:`PairTree` on integer node ids: ``(parent, sibling)``
    tables, -1 where there is none.  Node ``(level, j)`` gets id
    ``offset[level] + j``, so leaves are the ports, the ids of one level
    rise with ``j`` (the even-index child is the smaller id), and the
    root is the last id."""
    tree = PairTree(n_leaves)
    offsets = [0]
    for level in range(tree.root_level + 1):
        offsets.append(offsets[-1] + tree.level_count(level))
    parent: list[int] = []
    sibling: list[int] = []
    for level in range(tree.root_level + 1):
        for j in range(tree.level_count(level)):
            up = tree.parent((level, j))
            sib = tree.sibling((level, j))
            parent.append(-1 if up is None else offsets[up[0]] + up[1])
            sibling.append(-1 if sib is None else offsets[level] + sib[1])
    return tuple(parent), tuple(sibling)


class _TreeRecord:
    __slots__ = ("block_id", "cluster", "seen", "done", "claimed", "ops", "live_buffers")

    def __init__(self, block_id: int, cluster: int, n_nodes: int, replay: bool) -> None:
        self.block_id = block_id
        self.cluster = cluster
        self.seen = 0
        #: node -> time its data is available (inf: not yet).
        self.done = [_INF] * n_nodes
        self.claimed = bytearray(n_nodes)
        #: (left, right, parent) merges and (-1, node, parent) promotions,
        #: kept only for order-replay payloads.
        self.ops: Optional[list[tuple[int, int, int]]] = [] if replay else None
        self.live_buffers = 0


class TreeKernel(_DenseKernelBase):
    """Exact train model of :class:`TreeAggregationHandler`.

    Fills are DMA copies into per-packet buffers; merges climb the fixed
    pair tree as continuations, exactly one merge per resume, with the
    "only if a core finds available data in both buffers" rule and
    event-order tie-breaking via the claimed flags.
    """

    has_continuations = True

    def __init__(self, handler, switch, train, handler_name) -> None:
        self.worst_case_buffers = handler.config.n_children
        super().__init__(handler, switch, train, handler_name)
        self.parent, self.sibling = _flat_tree(handler.tree.n_leaves)
        self.n_nodes = len(self.parent)
        #: block -> its merge/promotion ops (order-replay payloads only).
        self._programs: dict[int, list[tuple[int, int, int]]] = {}

    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        cluster = self.block_cluster[block_id]
        rec = self.blocks.get(block_id)
        if rec is None:
            if self.l1_free[cluster] < self.admission_need:
                raise FastPathAbort("working-memory admission stall")
            rec = _TreeRecord(block_id, cluster, self.n_nodes, not self.vectorized)
            self.blocks[block_id] = rec
        t = start_t + self.dispatch_c
        bit = 1 << port
        if rec.seen & bit:
            self.duplicates += 1
            return t, 0.0, None
        rec.seen |= bit
        t += self.mgmt_c
        if self.l1_free[cluster] < self.nbytes:
            # The DES would roll back the bitmap and stall the packet.
            raise FastPathAbort("working-memory stall on tree buffer")
        self._l1_alloc(cluster, dispatch_t)
        rec.live_buffers += 1
        t += self.copy_c
        rec.done[port] = t           # leaf ids are the ports
        return t, 0.0, (rec, port)

    def resume(self, cont, now: float):
        """At most one merge upward from ``cont``'s node (the DES chains
        each further level as a fresh continuation)."""
        rec, node = cont
        parent_of = self.parent
        done = rec.done
        claimed = rec.claimed
        ops = rec.ops
        while True:
            parent = parent_of[node]
            if parent < 0:
                # Root: this climb owns the final result.
                block_id = rec.block_id
                self.emissions.append((now, block_id))
                self._l1_release(rec.cluster, now)
                rec.live_buffers -= 1
                if rec.live_buffers:
                    raise FastPathAbort("tree left live buffers at the root")
                self.blocks_completed += 1
                if ops is not None:
                    self._programs[block_id] = ops
                del self.blocks[block_id]
                # The DES returns a zero-length extension carrying the
                # outputs; replicate it so the completion bookkeeping
                # (last-completion update) lands on its own event.
                return now, None
            if claimed[parent]:
                return None
            sibling = self.sibling[node]
            if sibling < 0:
                # Odd subtree: promote for free.
                claimed[parent] = 1
                done[parent] = done[node]
                if ops is not None:
                    ops.append((-1, node, parent))
                node = parent
                continue
            if done[sibling] > now:
                return None   # sibling's (later) handler will climb
            claimed[parent] = 1
            t = now + self.combine_c
            self._l1_release(rec.cluster, t)
            rec.live_buffers -= 1
            done[parent] = t
            if ops is not None:
                ops.append((min(node, sibling), max(node, sibling), parent))
            return t, (rec, parent)

    def _build_payloads(self) -> dict[int, np.ndarray]:
        if self.vectorized:
            return self._vector_reduce()
        data = self.train.data
        combine = self.config.op.combine_into
        n_leaves = self.n_children
        pad = [None] * (self.n_nodes - n_leaves)
        out: dict[int, np.ndarray] = {}
        for block_id, ops in self._programs.items():
            # Completed blocks saw every child exactly once: one fresh
            # buffer per leaf, then the recorded merges in order.
            arrays = list(data[:n_leaves, block_id].copy()) + pad
            for left, right, parent in ops:
                if left >= 0:
                    combine(arrays[right], arrays[left])
                arrays[parent] = arrays[right]
            out[block_id] = arrays[-1].copy()
        return out


def _make_single(handler, switch, train, name):
    return SingleBufferKernel(handler, switch, train, name)


def _make_multi(handler, switch, train, name):
    return MultiBufferKernel(handler, switch, train, name)


def _make_tree(handler, switch, train, name):
    return TreeKernel(handler, switch, train, name)


register_train_kernel(SingleBufferHandler, _make_single)
register_train_kernel(MultiBufferHandler, _make_multi)
register_train_kernel(TreeAggregationHandler, _make_tree)
