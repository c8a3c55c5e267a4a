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
mismatch, a port outside the children or a repeated (block, port) pair,
tree roots of two subsets at one instant) raises
:class:`~repro.pspin.train.FastPathAbort`, and the switch transparently
re-runs the train through the per-packet path.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush

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
        n_children = self.n_children = config.n_children
        ports = train.ports
        if ports.min() < 0 or ports.max() >= n_children:
            raise FastPathAbort("port outside the children range")
        # One packet per (block, port): the kernels keep no Sec. 4.1
        # bitmap, so a repeated pair (a retransmission) runs on the DES.
        # The sorted pair keys and their train positions map emissions
        # back to packets in :meth:`finish_check`.
        self.keys, self.key_pos = np.unique(
            train.block_ids * n_children + ports, return_index=True
        )
        if len(self.keys) != train.n_packets:
            raise FastPathAbort("train repeats a (block, port) pair")
        cm = switch.config.cost_model
        nbytes = train.payload_nbytes
        self.nbytes = nbytes
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
        finish, blocks, dispatch, ports = map(np.array, zip(*self.emissions))
        keys = blocks * self.n_children + ports
        train_pos = self.key_pos[np.searchsorted(self.keys, keys)]
        subset = np.array([self.block_cluster[b] for b in blocks.tolist()])
        order = completion_order(self.switch, self.train, finish, dispatch, train_pos, subset)
        self.emissions = [self.emissions[i][:2] for i in order.tolist()]

    def commit(self) -> tuple[EgressRecord, int]:
        """Apply kernel-side state; returns (egress record, bytes)."""
        commit_working_memory(self.switch, self.l1_times, self.l1_deltas)
        handler = self.handler
        handler.blocks_completed += self.blocks_completed
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
class MultiBufferKernel(_DenseKernelBase):
    """Exact train model of :class:`MultiBufferHandler` (M = B; single
    buffer is B = 1).  A block in flight is ``[count, free_at, orders]``:
    its packets so far and, per buffer in allocation order, the instant
    its lock frees and the ports combined into it."""

    def __init__(self, handler, switch, train) -> None:
        super().__init__(handler, switch, train)
        self.n_buffers = handler.n_buffers
        #: block -> (per-buffer combine orders, completing buffer index)
        #: for the replay program.
        self._programs: dict[int, tuple[list[list[int]], int]] = {}

    def process(self, block_id: int, port: int, dispatch_t: float, start_t: float):
        rec = self.blocks.get(block_id)
        if rec is None:
            if self.l1_free[self.block_cluster[block_id]] < self.admission_need:
                raise FastPathAbort("working-memory admission stall")
            rec = self.blocks[block_id] = [0, [], []]
        rec[0] += 1
        _count, free_at, orders = rec
        t = start_t + self.dispatch_c
        # _pick_buffer: first free, else allocate (under the B budget),
        # else the earliest-freeing one (degrading on L1 exhaustion).
        chosen = -1
        for i, lock in enumerate(free_at):
            if lock <= t:
                chosen = i
                break
        if chosen < 0:
            if len(free_at) < self.n_buffers:
                t += self.mgmt_c
                cluster = self.block_cluster[block_id]
                if self.l1_free[cluster] >= self.nbytes:
                    self._l1_alloc(cluster, dispatch_t)
                    chosen = len(free_at)
                    free_at.append(0.0)
                    orders.append([])
                elif not free_at:
                    raise FastPathAbort("L1 cannot fit any aggregation buffer")
            if chosen < 0:
                chosen = free_at.index(min(free_at))
        lock = free_at[chosen]
        entry = lock if lock > t else t
        wait = entry - t
        finish = entry + self.combine_c
        free_at[chosen] = finish
        orders[chosen].append(port)
        if rec[0] != self.n_children:
            return finish, wait
        # Completing handler folds the other buffers (allocation order)
        # into its own, waiting out writers still in their sections.
        t_fold = finish
        for i, lock in enumerate(free_at):
            if i != chosen:
                entry = lock if lock > t_fold else t_fold
                wait += entry - t_fold
                t_fold = entry + self.combine_c
        self.emissions.append((t_fold, block_id, dispatch_t, port))
        cluster = self.block_cluster[block_id]
        for _ in free_at:
            self._l1_release(cluster, t_fold)
        self.blocks_completed += 1
        self._programs[block_id] = (orders, chosen)
        del self.blocks[block_id]
        return t_fold, wait

    def _build_payloads(self) -> dict[int, np.ndarray]:
        data = self.train.data
        combine = self.config.op.combine_into
        out: dict[int, np.ndarray] = {}
        for block_id, (orders, chosen) in self._programs.items():
            accs = []
            for order in orders:
                acc = data[order[0], block_id].copy()
                for port in order[1:]:
                    combine(acc, data[port, block_id])
                accs.append(acc)
            result = accs[chosen]
            for i, acc in enumerate(accs):
                if i != chosen:
                    combine(result, acc)
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

        Completions pop in ``(time, priority 0, scheduling order)`` and
        run before an arrival at their instant.  Packets dispatch FIFO
        with no queue: an arrival is an event only while some core is
        free, and takes the free core with the lowest index; otherwise
        it waits, and the next core whose handler ends takes the oldest
        packet that arrived strictly before that instant.  A block's
        state is node -> time its data is available (inf: not yet): a
        leaf's is set at its fill, a parent's when a climb claims it.
        Heap entries are ``(time, seq, slot, block_id, node)``: the
        handler climbs from ``node`` at that instant, and ``node`` is a
        leaf (a port, below ``n_children``) when the fill just ended."""
        cluster = st.subset
        parent_of, sibling_of = self.parent, self.sibling
        n_leaves = self.n_children
        unfilled = [_INF] * len(parent_of)
        blocks: dict[int, list[float]] = self.blocks
        emissions = self.emissions
        l1_times, l1_deltas = self.l1_times[cluster], self.l1_deltas[cluster]
        l1_free = self.l1_free[cluster]
        nbytes, admission_need = self.nbytes, self.admission_need
        dispatch_c, mgmt_c = self.dispatch_c, self.mgmt_c
        copy_c, combine_c = self.copy_c, self.combine_c
        blocks_completed = self.blocks_completed
        busy, handlers_run, busy_cycles = st.busy, st.handlers_run, st.busy_cycles
        arr_times = st.arr_times + [_INF]     # sentinels: neither ever runs
        arr_blocks, arr_ports = st.arr_blocks, st.arr_ports
        arr_i = seq = icache_fills = 0
        free = (1 << runner.n_slots) - 1      # bit s set: core s is free
        heap: list[tuple] = [(_INF, -1, -1, -1, -1)]
        l2_release = runner.l2_release_times
        last_completion = runner.last_completion
        icache_fill = runner.icache_fill
        warm = st.warm
        busy_total = 0.0
        while True:
            now = heap[0][0]
            if free and arr_times[arr_i] < now:
                # An arrival while a core is free: the lowest one takes it.
                now = arr_times[arr_i]
                low = free & -free
                free ^= low
                slot = low.bit_length() - 1
            elif now == _INF:
                break
            else:
                # Completion: priority 0 beats same-instant arrivals.
                now, _seq, slot, block_id, node = heappop(heap)
                if node < n_leaves:
                    l2_release.append(now)   # merges work in L1 only
                done = blocks[block_id]
                up = parent_of[node]
                # Odd subtrees promote for free.
                while sibling_of[node] < 0 and up >= 0 and done[up] == _INF:
                    done[up] = done[node]
                    node = up
                    up = parent_of[node]
                if up < 0:
                    # Root: this climb owns the final result.  The DES
                    # carries it in a zero-length extension, which
                    # leaves the core free at once.
                    emissions.append((now, block_id))
                    l1_free += nbytes
                    l1_times.append(now)
                    l1_deltas.append(-nbytes)
                    blocks_completed += 1
                    del blocks[block_id]
                    handlers_run[slot] += 1
                elif done[up] == _INF and done[sibling_of[node]] <= now:
                    # Both children ready: merge, extending the handler.
                    t = now + combine_c
                    l1_free += nbytes
                    l1_times.append(t)
                    l1_deltas.append(-nbytes)
                    done[up] = t
                    handlers_run[slot] += 1      # occupy() counts these
                    busy_cycles[slot] += t - now
                    busy_total += t - now
                    heappush(heap, (t, seq, slot, block_id, up))
                    seq += 1
                    continue
                # Otherwise the parent is claimed, or the sibling's
                # (later) handler will climb.  The handler ends here.
                busy[slot] = now
                if now > last_completion:
                    last_completion = now
                if arr_times[arr_i] >= now:
                    free |= 1 << slot
                    continue
                # A packet waits: the freed core takes the oldest.
            t = now
            if not warm:
                warm = True
                t += icache_fill
                icache_fills += 1
            block_id = arr_blocks[arr_i]
            port = arr_ports[arr_i]               # leaf ids are the ports
            arr_i += 1
            done = blocks.get(block_id)
            if done is None:
                if l1_free < admission_need:
                    raise FastPathAbort("working-memory admission stall")
                done = blocks[block_id] = unfilled.copy()
            t += dispatch_c
            t += mgmt_c
            if l1_free < nbytes:
                # The DES would roll back the bitmap and stall.
                raise FastPathAbort("working-memory stall on tree buffer")
            l1_free -= nbytes
            l1_times.append(now)
            l1_deltas.append(nbytes)
            t += copy_c
            done[port] = t
            handlers_run[slot] += 1
            busy_cycles[slot] += t - now
            busy_total += t - now
            heappush(heap, (t, seq, slot, block_id, port))
            seq += 1
        self.l1_free[cluster] = l1_free
        self.blocks_completed = blocks_completed
        st.warm = warm
        runner.icache_fills += icache_fills
        runner.handler_invocations += arr_i
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
