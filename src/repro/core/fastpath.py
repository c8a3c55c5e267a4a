"""Train kernels: exact fast-path models of the dense aggregation designs.

There are two: :class:`MultiBufferKernel` models B shared buffers per
block (single buffer is B = 1) and :class:`TreeKernel` the tree.  Each
kernel replicates, packet for packet, the cycle arithmetic its
handler performs under the per-packet DES — dispatch overhead, buffer
management, critical-section waits, tree climbs — while the
:class:`repro.pspin.train.TrainRunner` replicates the event loop around
it (the tree kernel, whose handlers extend, runs its own).  Payload
math is deferred to commit time and executed as *programs*:

* **vectorized** — integer payloads under a builtin operator (by
  identity, :func:`~repro.core.ops.order_free_ufunc`) reduce as one
  whole-train numpy block operation (wrapping integer arithmetic is
  order-insensitive, so this is bitwise identical to any combine order
  the DES would have used);
* **order replay** — float payloads and custom operators on shared
  buffers re-execute the DES's lock-acquisition combine order;
* **fixed tree** — on the tree they evaluate its fixed pair structure
  (F3) level by level, which is what keeps fp32 results — including
  reproducible-mode tree sums — bitwise identical.

Egress leaves as one :class:`~repro.pspin.packets.EgressRecord` per
commit, expanded into per-port packets only when read.

Any situation a kernel cannot reproduce exactly (working-memory
admission stalls, L1 exhaustion, incomplete blocks, payload/config dtype
mismatch, tree roots of two subsets at one instant) raises
:class:`~repro.pspin.train.FastPathAbort`, and the switch transparently
re-runs the train through the per-packet path.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from repro.core.handler_base import PARENT_PORT
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.ops import builtin_ufunc, order_free_ufunc
from repro.core.tree_buffer import PairTree, TreeAggregationHandler
from repro.pspin.packets import HEADER_BYTES, EgressRecord
from repro.pspin.train import (
    FastPathAbort,
    PacketTrain,
    commit_working_memory,
    completion_order,
    register_train_kernel,
)

_INF = float("inf")


class _DenseKernelBase:
    """Shared state and cost precomputation for dense train kernels."""

    def __init__(self, handler, switch, train: PacketTrain) -> None:
        self.handler = handler
        self.switch = switch
        self.train = train
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
        self.admission_need = (handler.worst_case_buffers + 1) * max(nbytes, 1)
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
        #: (finish_time, block_id, dispatch_time, port) per completed
        #: block, from the handler that completed (and emits) it; egress
        #: order as (time, block) pairs once :meth:`finish_check` ran.
        self.emissions: list[tuple] = []
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
        """Run one packet's handler: ``(finish_time, wait_cycles)``."""
        raise NotImplementedError

    def finish_check(self) -> None:
        if self.blocks:
            raise FastPathAbort("train left incomplete blocks behind")
        train = self.train
        finish, blocks, dispatch, ports = map(np.array, zip(*self.emissions))
        # A completing packet is the first copy of its (block, port) in
        # the train: later copies are duplicates and complete nothing.
        width = int(train.ports.max()) + 1
        keys, first = np.unique(train.block_ids * width + train.ports, return_index=True)
        train_pos = first[np.searchsorted(keys, blocks * width + ports)]
        subset = np.array([self.block_cluster[b] for b in blocks.tolist()])
        order = completion_order(self.switch, train, finish, dispatch, train_pos, subset)
        self.emissions = [self.emissions[i][:2] for i in order.tolist()]

    def commit(self) -> tuple[EgressRecord, int]:
        """Apply kernel-side state; returns (egress record, bytes)."""
        commit_working_memory(self.switch, self.l1_times, self.l1_deltas)
        handler = self.handler
        handler.blocks_completed += self.blocks_completed
        handler.duplicates_dropped += self.duplicates
        # The record expands each block's ports in list order, as the
        # DES's completion emits them.
        ports = self.config.multicast_ports
        record = EgressRecord(
            self.config.allreduce_id,
            self.emissions,
            self._vector_reduce() if self.vectorized else self._build_payloads(),
            [PARENT_PORT] if ports is None else ports,
            multicast=ports is not None,
        )
        # Dense emissions are uniform: one aggregated block per packet.
        return record, len(record) * (self.nbytes + HEADER_BYTES)

    # -- payload programs ----------------------------------------------
    def _build_payloads(self) -> dict[int, np.ndarray]:
        """Float payloads and custom operators: the design's program."""
        raise NotImplementedError

    def _vector_reduce(self) -> dict[int, np.ndarray]:
        """One whole-train block reduction (int dtypes, builtin ops)."""
        data = self.train.data
        reduced = self.ufunc.reduce(data, axis=0, dtype=data.dtype)
        return {block_id: reduced[block_id] for _t, block_id in self.emissions}


# ----------------------------------------------------------------------
# Shared buffers, single buffer being B = 1 (Secs. 6.1 and 6.2)
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
    """Exact train model of :class:`MultiBufferHandler` (M = B; single
    buffer is B = 1)."""

    def __init__(self, handler, switch, train) -> None:
        super().__init__(handler, switch, train)
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
            return t, 0.0
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
            return finish, wait
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
        self.emissions.append((t_fold, block_id, dispatch_t, port))
        for _ in buffers:
            self._l1_release(cluster, t_fold)
        self.blocks_completed += 1
        self._programs[block_id] = (
            [b.order for b in buffers],
            chosen_idx,
            fold_order,
        )
        del self.blocks[block_id]
        return t_fold, wait

    def _build_payloads(self) -> dict[int, np.ndarray]:
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


class TreeKernel(_DenseKernelBase):
    """Exact train model of :class:`TreeAggregationHandler`.

    Fills are DMA copies into per-packet buffers; merges climb the fixed
    pair tree, one merge per extension of the handler, with the "only if
    a core finds available data in both buffers" rule and event-order
    tie-breaking via claimed parents.  An extension keeps its core
    busy, so the kernel runs its own heap sweep with the fill and the
    climb written inline.
    """

    def __init__(self, handler, switch, train) -> None:
        super().__init__(handler, switch, train)
        self.parent, self.sibling = _flat_tree(handler.tree.n_leaves)

    def sweep(self, runner, st) -> None:
        """Run one core subset (== cluster) through the event loop.
        Completions pop in ``(time, priority 0, scheduling order)``; a
        core whose handler may still climb reads busy until inf, so no
        packet takes it first.  Queued packets take the first free core.
        A block's state is node -> time its data is available (inf: not
        yet): a leaf's is set at its fill, so a second copy finds it set
        (a duplicate), and a parent's when a climb claims it."""
        cluster = st.subset
        parent_of, sibling_of = self.parent, self.sibling
        unfilled = [_INF] * len(parent_of)
        blocks: dict[int, list[float]] = self.blocks
        emissions = self.emissions
        l1_times, l1_deltas = self.l1_times[cluster], self.l1_deltas[cluster]
        l1_free = self.l1_free[cluster]
        nbytes, admission_need = self.nbytes, self.admission_need
        dispatch_c, mgmt_c = self.dispatch_c, self.mgmt_c
        copy_c, combine_c = self.copy_c, self.combine_c
        duplicates, blocks_completed = self.duplicates, self.blocks_completed
        busy, handlers_run, busy_cycles = st.busy, st.handlers_run, st.busy_cycles
        slot_range = range(runner.n_slots)
        arr_times, arr_blocks, arr_ports = st.arr_times, st.arr_blocks, st.arr_ports
        n_arr = len(arr_times)
        arr_i = seq = icache_fills = invocations = 0
        queue: deque[int] = deque()   # indices (into arr_*) awaiting dispatch
        # (time, seq, slot, is_fill, block_id, node): the handler climbs
        # from ``node`` at this completion; node -1 ends it instead.
        heap: list[tuple] = []
        l2_release = runner.l2_release_times
        last_completion = runner.last_completion
        icache_fill = runner.icache_fill
        warm = st.warm
        busy_total = 0.0
        while arr_i < n_arr or heap:
            next_arr = arr_times[arr_i] if arr_i < n_arr else _INF
            if heap and heap[0][0] <= next_arr:
                # Completion: priority 0 beats same-instant arrivals.
                now, _seq, slot, is_fill, block_id, node = heappop(heap)
                if is_fill:
                    l2_release.append(now)   # merges work in L1 only
                if node < 0:
                    # A duplicate's handler, or a root's zero-length
                    # extension, ends here.
                    if now > last_completion:
                        last_completion = now
                else:
                    done = blocks[block_id]
                    up = parent_of[node]
                    # Odd subtrees promote for free.
                    while up >= 0 and done[up] == _INF and sibling_of[node] < 0:
                        done[up] = done[node]
                        node = up
                        up = parent_of[node]
                    if up < 0:
                        # Root: this climb owns the final result.  Like
                        # the DES, a zero-length extension carries it,
                        # and its own completion ends the handler.
                        emissions.append((now, block_id))
                        l1_free += nbytes
                        l1_times.append(now)
                        l1_deltas.append(-nbytes)
                        blocks_completed += 1
                        del blocks[block_id]
                        busy[slot] = now
                        handlers_run[slot] += 1
                        heappush(heap, (now, seq, slot, False, block_id, -1))
                        seq += 1
                    elif done[up] != _INF or done[sibling_of[node]] > now:
                        # Parent claimed, or the sibling's (later)
                        # handler will climb: this handler ends.
                        busy[slot] = now
                        if now > last_completion:
                            last_completion = now
                    else:
                        t = now + combine_c
                        l1_free += nbytes
                        l1_times.append(t)
                        l1_deltas.append(-nbytes)
                        done[up] = t
                        busy[slot] = _INF
                        handlers_run[slot] += 1      # occupy() counts these
                        busy_cycles[slot] += t - now
                        busy_total += t - now
                        heappush(heap, (t, seq, slot, False, block_id, up))
                        seq += 1
                        if not duplicates:
                            # While the queue is non-empty no other core
                            # is free now (each freed core took its head
                            # at its own completion).  A duplicate's core
                            # is free from its finish on, before its own
                            # completion runs: scan then.
                            continue
                if not queue:
                    continue
            else:
                now = next_arr
                queue.append(arr_i)
                arr_i += 1
            # Queued packets take free cores, first free index first.
            while queue:
                for slot in slot_range:
                    if busy[slot] <= now:
                        break
                else:
                    break
                k = queue.popleft()
                t = now
                if not warm:
                    warm = True
                    t += icache_fill
                    icache_fills += 1
                block_id = arr_blocks[k]
                port = arr_ports[k]           # leaf ids are the ports
                done = blocks.get(block_id)
                if done is None:
                    if l1_free < admission_need:
                        raise FastPathAbort("working-memory admission stall")
                    done = blocks[block_id] = unfilled.copy()
                t += dispatch_c
                if done[port] != _INF:
                    duplicates += 1
                    busy[slot] = t
                    port = -1
                else:
                    t += mgmt_c
                    if l1_free < nbytes:
                        # The DES would roll back the bitmap and stall.
                        raise FastPathAbort("working-memory stall on tree buffer")
                    l1_free -= nbytes
                    l1_times.append(now)
                    l1_deltas.append(nbytes)
                    t += copy_c
                    done[port] = t
                    busy[slot] = _INF
                handlers_run[slot] += 1
                busy_cycles[slot] += t - now
                invocations += 1
                busy_total += t - now
                heappush(heap, (t, seq, slot, True, block_id, port))
                seq += 1
        self.l1_free[cluster] = l1_free
        self.duplicates, self.blocks_completed = duplicates, blocks_completed
        st.warm = warm
        runner.icache_fills += icache_fills
        runner.handler_invocations += invocations
        runner.busy_total += busy_total
        runner.last_completion = last_completion

    def finish_check(self) -> None:
        if self.blocks:
            raise FastPathAbort("train left incomplete blocks behind")
        # Each subset's sweep emits its roots in the DES's order.  Roots
        # of two subsets at one instant pop in the order of their
        # handlers' whole event chains, which the sweeps do not keep.
        self.emissions.sort(key=lambda emission: emission[0])     # stable
        cluster = self.block_cluster
        for (t, block), (t_next, block_next) in zip(self.emissions, self.emissions[1:]):
            if t == t_next and cluster[block] != cluster[block_next]:
                raise FastPathAbort("tree roots of two subsets complete at one instant")

    def _build_payloads(self) -> dict[int, np.ndarray]:
        """The fixed pair tree (F3), level by level: each pair merges as
        ``combine_into(right, left)``, a node without a sibling promotes.
        What combines with what is fixed by the tree shape, so the DES's
        (arrival-dependent) merge order need not be recorded: with an
        element-wise ``combine_into`` the order does not change a bit."""
        level = self.train.data[: self.n_children]    # (nodes, blocks, elements)
        ufunc = builtin_ufunc(self.config.op)
        if ufunc is None:
            # Custom operators: one buffer per leaf, block by block.
            combine = self.config.op.combine_into
            return {b: _pair_reduce(list(level[:, b].copy()), combine)
                    for _t, b in self.emissions}
        while len(level) > 1:
            pairs = len(level) // 2
            merged = ufunc(level[1 : 2 * pairs : 2], level[0 : 2 * pairs : 2])
            level = np.concatenate([merged, level[-1:]]) if len(level) % 2 else merged
        roots = level[0] if self.n_children > 1 else level[0].copy()
        return {b: roots[b] for _t, b in self.emissions}


def _pair_reduce(nodes: list, combine) -> np.ndarray:
    """Reduce one block's leaf buffers up the pair tree, in place."""
    while len(nodes) > 1:
        for i in range(1, len(nodes), 2):
            combine(nodes[i], nodes[i - 1])
        nodes = nodes[1::2] + nodes[-1:] if len(nodes) % 2 else nodes[1::2]
    return nodes[0]


register_train_kernel(MultiBufferHandler, MultiBufferKernel)
register_train_kernel(TreeAggregationHandler, TreeKernel)
