"""Shared-buffer aggregation (paper Secs. 6.1 and 6.2, Figs. 6 and 8).

Each block owns up to B aggregation buffers; single-buffer aggregation
(Sec. 6.1) is B = 1.  A handler grabs whichever buffer is free *now*;
if none is free but fewer than B exist it allocates a new one; if all B
are locked it queues on the earliest-freeing one (the critical-section
wait of Figs. 6 and 8).  The first handler to touch a buffer copies its
payload in; every later one combines element-wise.

Contention: the lock is the buffer's ``free_at`` timestamp, acquired in
dispatch (FCFS) order.  A handler that finds its buffer locked spins —
its core stays busy for the wait plus the aggregation (Fig. 6's red
boxes) — so with one buffer, S cores per subset and intra-block
interarrival below the service time, the average service time degrades
to ``L (S-1)/2`` (Eq. 2).  That caps single-buffer bandwidth for small
messages (Figs. 7 and 11).  B buffers cut the contention probability
roughly by 1/B, which is what recovers bandwidth at intermediate sizes
where staggered sending cannot stretch delta_c past L (Fig. 10).

The price: the handler that completes the children bitmap must fold the
other B-1 partial buffers into one — (B-1)L extra cycles — and the block
holds M = B working-memory buffers.

Floating-point caveat: values are combined in lock acquisition order,
i.e. packet dispatch order, so across runs with different arrival
interleavings an fp32 sum is not bitwise stable; tree aggregation
(Sec. 6.3) is the reproducible design.
"""

from __future__ import annotations

from repro.core.buffers import AggregationBuffer
from repro.core.handler_base import AggregationHandlerBase, HandlerConfig, _BlockRecord
from repro.pspin.switch import HandlerContext, HandlerResult


class MultiBufferHandler(AggregationHandlerBase):
    """B aggregation buffers per block (M = B; single buffer is B = 1)."""

    def __init__(self, config: HandlerConfig, n_buffers: int) -> None:
        if n_buffers < 1:
            raise ValueError("n_buffers must be >= 1")
        super().__init__(config)
        self.n_buffers = self.worst_case_buffers = n_buffers
        self.name = f"flare-multi{n_buffers}"

    def _pick_buffer(
        self, ctx: HandlerContext, rec: _BlockRecord, t: float, n_elements: int
    ) -> tuple[AggregationBuffer, float]:
        """Choose the buffer to aggregate into; returns (buffer, t).

        Preference order (Fig. 8): a currently-free buffer, then a newly
        allocated one (if under the B budget), then the one freeing
        soonest.
        """
        buffers: list[AggregationBuffer] = rec.extra.setdefault("buffers", [])
        for buf in buffers:
            if buf.free_at <= t:
                return buf, t
        if len(buffers) < self.n_buffers:
            t += ctx.costs.buffer_mgmt_cycles
            pool = self._pool(ctx, rec.home_cluster)
            buf = pool.allocate(n_elements, ctx.dispatch_time)
            if buf is None:
                # L1 exhausted: degrade to waiting on an existing buffer
                # rather than failing the reduction.
                if not buffers:
                    raise MemoryError(
                        f"L1 of cluster {rec.home_cluster} cannot fit any "
                        f"aggregation buffer for block {rec.state.key}"
                    )
            else:
                buffers.append(buf)
                return buf, t
        return min(buffers, key=lambda b: b.free_at), t

    def _aggregate(self, ctx: HandlerContext, rec: _BlockRecord, t: float) -> HandlerResult:
        packet = ctx.packet
        penalty = self._remote_penalty(ctx, rec)
        n_elements = len(packet.payload)

        buf, t = self._pick_buffer(ctx, rec, t, n_elements)
        hold = self._combine_cost(ctx, packet.payload.nbytes, penalty)
        entry, wait = buf.acquire(t, hold)
        t = entry + hold
        self._write_into(buf, packet.payload)

        if not rec.state.complete:
            return HandlerResult(finish_time=t, wait_cycles=wait)

        # Last handler: fold the remaining B-1 partial buffers into ours
        # ((B-1)L extra cycles), waiting out any writer still inside its
        # critical section.
        buffers: list[AggregationBuffer] = rec.extra["buffers"]
        pool = self._pool(ctx, rec.home_cluster)
        nbytes_full = int(buf.data.nbytes)
        for other in buffers:
            if other is buf or not other.filled:
                continue
            merge_hold = self._combine_cost(ctx, nbytes_full, penalty)
            entry, w = other.acquire(t, merge_hold)
            wait += w
            t = entry + merge_hold
            self.config.op.combine_into(buf.data, other.data)
        result_payload = buf.data.copy()
        outputs = self._outputs_for(result_payload, packet.block_id)
        for other in list(buffers):
            pool.release(other, t)
        self._finish_block(ctx, rec, t)
        return HandlerResult(
            finish_time=t,
            outputs=outputs,
            completed_block=rec.state.key,
            wait_cycles=wait,
        )
