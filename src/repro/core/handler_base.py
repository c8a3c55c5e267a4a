"""Shared machinery for Flare aggregation handlers.

A handler instance serves one allreduce on one switch: the switch routes
the allreduce's packets to it, and it keeps per-block state (completion bitmap,
aggregation buffers) in the working memory of the cluster that owns the
block.  The two dense aggregation designs (B shared buffers per block,
single buffer being B = 1, and the tree) subclass
:class:`AggregationHandlerBase` and implement ``_aggregate``.

Timing conventions
------------------
Handlers compute *absolute* cycle timestamps.  ``ctx.start_time`` is
when real work begins (after any i-cache fill); every handler charges
``handler_dispatch_cycles`` of fixed overhead, then algorithm-specific
costs.  Critical sections are modeled by buffer ``free_at`` timestamps
(see :mod:`repro.core.buffers`) so contention serializes in dispatch
order — the FCFS semantics of Sec. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.blockstate import BlockState
from repro.core.buffers import BufferPool
from repro.core.ops import ReductionOp, SUM, get_op
from repro.pspin.costs import DType, get_dtype
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import HandlerContext, HandlerResult, WorkingMemoryStall

#: Egress port id meaning "towards the parent in the reduction tree".
PARENT_PORT = -1


@dataclass
class HandlerConfig:
    """Per-allreduce handler parameters, installed with the handler (Sec. 4)."""

    allreduce_id: int
    n_children: int
    dtype_name: str = "float32"
    #: None -> send the aggregated block to the parent; a list of ports
    #: -> this switch is the tree root and multicasts down (Sec. 4).
    multicast_ports: Optional[list[int]] = None
    reproducible: bool = False
    #: Aggregation operator (F1: arbitrary user functions are handlers).
    op: ReductionOp = field(default_factory=lambda: SUM)

    def __post_init__(self) -> None:
        self.op = get_op(self.op)

    @property
    def dtype(self) -> DType:
        return get_dtype(self.dtype_name)


@dataclass(slots=True)
class _BlockRecord:
    """Per-block bookkeeping common to every design."""

    state: BlockState
    home_cluster: int
    extra: dict = field(default_factory=dict)


class AggregationHandlerBase:
    """Base class for dense aggregation handlers.

    Subclasses set a unique handler (image) ``name`` and
    ``worst_case_buffers``, the most working-memory buffers one block
    may hold at once (B, or P for the tree), which admission reserves.
    """

    def __init__(self, config: HandlerConfig) -> None:
        self.config = config
        self._blocks: dict[tuple[int, int], _BlockRecord] = {}
        self._pools: dict[int, BufferPool] = {}
        self.blocks_completed = 0
        self.duplicates_dropped = 0

    # ------------------------------------------------------------------
    # Infrastructure
    # ------------------------------------------------------------------
    def _pool(self, ctx: HandlerContext, cluster_id: int) -> BufferPool:
        pool = self._pools.get(cluster_id)
        if pool is None:
            pool = BufferPool(
                ctx.switch.clusters[cluster_id].l1,
                telemetry=ctx.switch.telemetry,
                dtype=np.dtype(self.config.dtype_name),
            )
            self._pools[cluster_id] = pool
        return pool

    def _record(self, ctx: HandlerContext) -> _BlockRecord:
        key = ctx.packet.key()
        rec = self._blocks.get(key)
        if rec is None:
            rec = _BlockRecord(
                state=BlockState(key=key, n_children=self.config.n_children),
                home_cluster=ctx.cluster.cluster_id,
            )
            self._blocks[key] = rec
        return rec

    def _combine_cost(self, ctx: HandlerContext, nbytes: int, penalty: float = 1.0) -> float:
        """Cycles to combine ``nbytes`` of payload into a buffer."""
        base = ctx.costs.aggregation_cycles(nbytes, self.config.dtype)
        return base * self.config.op.cycles_factor * penalty

    def _write_into(self, buf, payload) -> None:
        """Copy-in on first touch, operator-combine afterwards."""
        view = buf.data[: len(payload)]
        if buf.filled:
            self.config.op.combine_into(view, payload)
        else:
            view[:] = payload
            buf.filled = True

    def _remote_penalty(self, ctx: HandlerContext, rec: _BlockRecord) -> float:
        """Cost multiplier for touching a remote cluster's L1.

        Hierarchical scheduling pins a block to one cluster, so this is
        1.0 there; plain FCFS pays the penalty whenever the executing
        core sits elsewhere (Sec. 5).
        """
        if ctx.cluster.cluster_id == rec.home_cluster:
            return 1.0
        return ctx.costs.remote_l1_penalty

    def _outputs_for(self, payload: np.ndarray, block_id: int) -> list[SwitchPacket]:
        """Build the egress packet(s) for a completed block."""
        ports = self.config.multicast_ports
        if ports is None:
            return [
                SwitchPacket(
                    allreduce_id=self.config.allreduce_id,
                    block_id=block_id,
                    port=PARENT_PORT,
                    payload=payload,
                )
            ]
        return [
            SwitchPacket(
                allreduce_id=self.config.allreduce_id,
                block_id=block_id,
                port=p,
                payload=payload.copy(),
            )
            for p in ports
        ]

    # ------------------------------------------------------------------
    # Handler entry point
    # ------------------------------------------------------------------
    def process(self, ctx: HandlerContext) -> HandlerResult:
        key = ctx.packet.key()
        if key not in self._blocks:
            # Admit a new block only if this design's worst-case buffer
            # footprint (plus one block of slack) fits the home L1.
            need = (self.worst_case_buffers + 1) * max(
                int(ctx.packet.payload.nbytes), 1
            )
            if ctx.cluster.l1.free_bytes < need:
                raise WorkingMemoryStall(
                    f"cluster {ctx.cluster.cluster_id}: block {key} needs "
                    f"{need} B headroom, {ctx.cluster.l1.free_bytes} B free"
                )
        rec = self._record(ctx)
        t = ctx.start_time + ctx.costs.handler_dispatch_cycles
        if not rec.state.mark_dense(ctx.packet.port):
            # Retransmitted packet: already aggregated (Sec. 4.1 bitmap);
            # consume only the dispatch/lookup cost.
            self.duplicates_dropped += 1
            return HandlerResult(finish_time=t)
        return self._aggregate(ctx, rec, t)

    def _aggregate(self, ctx: HandlerContext, rec: _BlockRecord, t: float) -> HandlerResult:
        raise NotImplementedError

    def _finish_block(self, ctx: HandlerContext, rec: _BlockRecord, t: float) -> None:
        """Common completion bookkeeping."""
        self.blocks_completed += 1
        del self._blocks[rec.state.key]

    # ------------------------------------------------------------------
    # Introspection (tests / experiments)
    # ------------------------------------------------------------------
    @property
    def in_flight_blocks(self) -> int:
        return len(self._blocks)

    def working_memory_bytes(self) -> int:
        return sum(pool.used_bytes for pool in self._pools.values())
