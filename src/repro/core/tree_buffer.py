"""Tree aggregation (paper Sec. 6.3, Fig. 9).

Every packet is DMA-copied into its own buffer (64 cycles/KiB instead of
the ~1024-cycle aggregation), and partial buffers merge pairwise along a
*fixed* binary tree: buffer 2j merges into buffer 2j+1, then level-1
carriers merge, and so on to the root.  A handler only performs the next
merge if it finds data already present in the sibling buffer — otherwise
it simply terminates and the sibling's (later-finishing) handler will do
it.  No handler ever waits on a critical section, so the design achieves
optimal bandwidth regardless of the intra-block interarrival delta_c —
which is why it is the only Flare design that beats SwitchML at small
message sizes (Fig. 11).

Reproducibility (F3): the leaf slot is the ingress *port*, so the
combine structure — which values are grouped with which — is a function
of the reduction-tree shape only, never of packet arrival order.  For
fp32 summation this yields bitwise-identical results across runs (tested
by permuting arrival orders in ``tests/core/test_reproducibility.py``).

Cost accounting: P-1 merges of L cycles each are spread over the P
handlers (whoever finds the sibling ready climbs), giving the modeled
per-packet average tau = copy + (P-1)L/P.  Live buffers per block
average (P-1)/log2(P) (each merge frees one buffer).

The climb runs as a *continuation* at the handler's fill-completion
time: whether a handler merges depends on which sibling finished last,
which is unknowable at dispatch time (see
:class:`repro.pspin.switch.HandlerResult`).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.buffers import AggregationBuffer
from repro.core.handler_base import AggregationHandlerBase, HandlerConfig, _BlockRecord
from repro.pspin.switch import HandlerContext, HandlerResult, WorkingMemoryStall

Node = tuple[int, int]  # (level, index)


class PairTree:
    """The fixed merge structure over P leaves.

    Node ``(l, j)`` covers leaves ``[j * 2^l, min((j+1) * 2^l, P))``.
    Level l has ``ceil(P / 2^l)`` nodes; the root is the first level with
    a single node.  A node whose sibling index falls off the end of its
    level *promotes* to its parent for free (odd subtree sizes).
    """

    def __init__(self, n_leaves: int) -> None:
        if n_leaves < 1:
            raise ValueError("need at least one leaf")
        self.n_leaves = n_leaves
        self.root_level = 0 if n_leaves == 1 else math.ceil(math.log2(n_leaves))

    def level_count(self, level: int) -> int:
        return -(-self.n_leaves // (1 << level))

    def parent(self, node: Node) -> Optional[Node]:
        level, j = node
        if level >= self.root_level:
            return None
        return (level + 1, j // 2)

    def sibling(self, node: Node) -> Optional[Node]:
        level, j = node
        sib = j ^ 1
        if sib >= self.level_count(level):
            return None
        return (level, sib)

    @property
    def root(self) -> Node:
        return (self.root_level, 0)

    def merge_count(self) -> int:
        """Total pairwise merges = P - 1 (invariant; property-tested)."""
        total = 0
        for level in range(self.root_level):
            total += self.level_count(level) // 2
        return total


class TreeAggregationHandler(AggregationHandlerBase):
    """Fixed-structure pairwise-merge aggregation (M ~ (P-1)/log2 P)."""

    name = "flare-tree"

    def __init__(self, config: HandlerConfig) -> None:
        super().__init__(config)
        self.tree = PairTree(config.n_children)
        self.worst_case_buffers = config.n_children

    # ------------------------------------------------------------------
    def _aggregate(self, ctx: HandlerContext, rec: _BlockRecord, t: float) -> HandlerResult:
        packet = ctx.packet
        pool = self._pool(ctx, rec.home_cluster)
        done_at: dict[Node, float] = rec.extra.setdefault("done_at", {})
        buffer_at: dict[Node, AggregationBuffer] = rec.extra.setdefault("buffer_at", {})

        t += ctx.costs.buffer_mgmt_cycles
        buf = pool.allocate(len(packet.payload), ctx.dispatch_time)
        if buf is None:
            # Roll back the bitmap mark so the retried packet aggregates.
            rec.state.bitmap._bits &= ~(1 << packet.port)
            raise WorkingMemoryStall(
                f"L1 of cluster {rec.home_cluster} cannot fit a tree buffer "
                f"for block {rec.state.key}"
            )
        # DMA copy (cheap) rather than an element-wise pass.
        t += ctx.costs.copy_cycles(packet.payload.nbytes)
        self._write_into(buf, packet.payload)

        leaf: Node = (0, packet.port)
        if leaf in done_at:
            raise RuntimeError(f"leaf {leaf} filled twice for block {rec.state.key}")
        done_at[leaf] = t
        buffer_at[leaf] = buf

        def climb(now: float) -> Optional[HandlerResult]:
            return self._climb(ctx, rec, leaf, now)

        return HandlerResult(finish_time=t, continuation=climb)

    # ------------------------------------------------------------------
    def _climb(
        self, ctx: HandlerContext, rec: _BlockRecord, start: Node, now: float
    ) -> Optional[HandlerResult]:
        """Perform at most one merge upward from ``start``.

        Runs at the handler's fill/merge completion time; ``done_at``
        entries may point into the future (a sibling still being filled
        or merged), in which case this handler stops and the sibling's
        climb takes over — the paper's "only if a core finds available
        data in both buffers" rule, with ties broken by event order via
        ``claimed``.

        One merge per invocation is essential: each merge ends at a
        *future* time, and whether the next level can proceed must be
        decided with the block state as of that time — so the next check
        is chained as a fresh continuation rather than evaluated eagerly
        (eager evaluation deadlocks when a promotion lands between a
        merge's start and its end).
        """
        done_at: dict[Node, float] = rec.extra["done_at"]
        buffer_at: dict[Node, AggregationBuffer] = rec.extra["buffer_at"]
        claimed: set[Node] = rec.extra.setdefault("claimed", set())
        pool = self._pool(ctx, rec.home_cluster)
        penalty = self._remote_penalty(ctx, rec)

        node = start
        t = now
        while True:
            parent = self.tree.parent(node)
            if parent is None:
                # Reached the root: this climb owns the final result.
                root_buf = buffer_at[node]
                payload = root_buf.data.copy()
                outputs = self._outputs_for(payload, rec.state.key[1])
                pool.release(root_buf, t)
                self._finish_block(ctx, rec, t)
                return HandlerResult(
                    finish_time=t, outputs=outputs, completed_block=rec.state.key
                )
            if parent in claimed:
                return None
            sibling = self.tree.sibling(node)
            if sibling is None:
                # Odd subtree: promote for free; data availability time
                # is inherited, no cycles are charged.
                claimed.add(parent)
                done_at[parent] = done_at[node]
                buffer_at[parent] = buffer_at[node]
                node = parent
                continue
            sib_done = done_at.get(sibling)
            if sib_done is None or sib_done > t:
                # Sibling not ready: its handler will climb later.
                return None
            # Both children ready: merge even-index buffer into odd-index
            # one (fixed direction -> fixed combine structure -> F3).
            claimed.add(parent)
            level, j = node
            left = buffer_at[(level, j & ~1)]
            right = buffer_at[(level, j | 1)]
            cost = self._combine_cost(ctx, int(left.data.nbytes), penalty)
            t += cost
            self.config.op.combine_into(right.data, left.data)
            pool.release(left, t)
            done_at[parent] = t
            buffer_at[parent] = right

            def next_climb(now2: float, _node: Node = parent) -> Optional[HandlerResult]:
                return self._climb(ctx, rec, _node, now2)

            return HandlerResult(finish_time=t, continuation=next_climb)
