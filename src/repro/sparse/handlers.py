"""Sparse aggregation handler (paper Sec. 7).

Differences from the dense handlers:

* **Shard counters** instead of one-packet-per-child: a child may split
  a block over several packets and announces the count in the last one.
* **Storage backends**: a hash table with spill buffer or a dense span
  array (see the storage modules); chosen at install time, with the
  paper's guidance being hash at the (sparser) leaves and array at the
  (denser) root.
* **Mutual exclusion**: sparse inserts mutate shared structures with
  data-dependent access patterns, so the whole per-block update runs in
  one critical section (the paper: sparse aggregation "in most cases
  needs to be executed anyhow in a mutually exclusive way").
* **Spill traffic**: hash-backend spill flushes leave the switch as
  extra packets the moment the buffer fills — Fig. 14's extra-traffic
  metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.blockstate import BlockState
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import HandlerContext, HandlerResult
from repro.sparse.array_storage import ArrayStorage
from repro.sparse.densify import SPARSE_ELEMENT_BYTES
from repro.sparse.hash_storage import HashStorage
from repro.sparse.models import sparse_elements_per_packet

PARENT_PORT = -1

#: Working-memory budget per cluster for one sparse allreduce.  The paper
#: statically partitions switch memory across a maximum number of
#: concurrent allreduces (Sec. 4); this grants half the 1 MiB L1, i.e.
#: two concurrent allreduces per switch.
L1_BUDGET_BYTES = 512 * 1024


@dataclass
class SparseHandlerConfig:
    """Install-time parameters for one sparse allreduce on one switch."""

    allreduce_id: int
    n_children: int
    storage: str = "hash"          # "hash" | "array"
    density: float = 0.1           # sizing hint: block span = N / density
    dtype_name: str = "float32"
    packet_bytes: int = 1024
    hash_slots_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.storage not in ("hash", "array"):
            raise ValueError(f"unknown sparse storage {self.storage!r}")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if self.packet_bytes < SPARSE_ELEMENT_BYTES:
            raise ValueError(
                f"packet_bytes ({self.packet_bytes}) is smaller than one "
                f"{SPARSE_ELEMENT_BYTES} B sparse index+value element"
            )
        if not (math.isfinite(self.hash_slots_factor) and self.hash_slots_factor > 0):
            raise ValueError(
                "hash_slots_factor must be a positive finite number, "
                f"got {self.hash_slots_factor!r}"
            )

    @property
    def elements_per_packet(self) -> int:
        return sparse_elements_per_packet(self.packet_bytes)

    @property
    def block_span(self) -> int:
        return max(1, int(round(self.elements_per_packet / self.density)))


@dataclass(slots=True)
class _SparseBlockRecord:
    state: BlockState
    storage: object
    home_cluster: int
    lock_free_at: float = 0.0
    memory_bytes: int = 0


class SparseAggregationHandler:
    """Hash- or array-backed sparse block aggregation."""

    def __init__(self, config: SparseHandlerConfig) -> None:
        self.config = config
        self.name = f"flare-sparse-{config.storage}"
        self._blocks: dict[tuple[int, int], _SparseBlockRecord] = {}
        self._budget_used: dict[int, int] = {}   # cluster -> bytes in use
        self.blocks_completed = 0
        self.spilled_bytes_total = 0
        self.peak_block_memory = 0

    # ------------------------------------------------------------------
    def _make_storage(self):
        cfg = self.config
        if cfg.storage == "hash":
            return HashStorage(
                n_slots=max(1, int(cfg.elements_per_packet * cfg.hash_slots_factor)),
                dtype=cfg.dtype_name,
                spill_capacity=cfg.elements_per_packet,
            )
        return ArrayStorage(span=cfg.block_span, dtype=cfg.dtype_name)

    def _record(self, ctx: HandlerContext) -> _SparseBlockRecord:
        key = ctx.packet.key()
        rec = self._blocks.get(key)
        if rec is None:
            storage = self._make_storage()
            rec = _SparseBlockRecord(
                state=BlockState(key=key, n_children=self.config.n_children),
                storage=storage,
                home_cluster=ctx.cluster.cluster_id,
                memory_bytes=storage.memory_bytes,
            )
            # A block that does not fit counts too: it is the storage
            # an infeasible run reports.
            self.peak_block_memory = max(self.peak_block_memory, rec.memory_bytes)
            l1 = ctx.switch.clusters[rec.home_cluster].l1
            used = self._budget_used.get(rec.home_cluster, 0)
            over_budget = used + rec.memory_bytes > L1_BUDGET_BYTES
            if over_budget or not l1.allocate(rec.memory_bytes):
                raise MemoryError(
                    f"cluster {rec.home_cluster} cannot fit "
                    f"{self.config.storage} storage of {rec.memory_bytes} B "
                    f"for block {key} within this allreduce's "
                    f"{L1_BUDGET_BYTES} B partition "
                    f"(density {self.config.density:.2%}); "
                    "array storage at low density does not fit Flare memory "
                    "(paper Fig. 14: no array bars at 1%)"
                )
            self._budget_used[rec.home_cluster] = used + rec.memory_bytes
            ctx.switch.telemetry.working_memory_bytes.add(
                ctx.dispatch_time, rec.memory_bytes
            )
            self._blocks[key] = rec
        return rec

    # ------------------------------------------------------------------
    def process(self, ctx: HandlerContext) -> HandlerResult:
        cfg = self.config
        packet = ctx.packet
        if packet.indices is None:
            raise ValueError("sparse handler received a dense packet")
        rec = self._record(ctx)
        cm = ctx.costs

        t = ctx.start_time + cm.handler_dispatch_cycles
        n_elem = len(packet.payload)

        # Everything below runs inside the block's critical section.
        insert_cost = cm.sparse_insert_cycles(n_elem, cfg.storage)
        penalty = (
            1.0
            if ctx.cluster.cluster_id == rec.home_cluster
            else cm.remote_l1_penalty
        )
        flushes = rec.storage.insert(packet.indices, packet.payload)
        hold = insert_cost * penalty + len(flushes) * cm.spill_flush_cycles

        rec.state.mark_sparse(packet.port, packet.last_of_block, packet.shard_count)
        outputs: list[SwitchPacket] = []
        for flush in flushes:
            self.spilled_bytes_total += flush.bytes
            outputs.extend(
                self._emit_sparse(flush.indices, flush.values, packet.block_id)
            )

        completed: Optional[tuple[int, int]] = None
        if rec.state.complete:
            indices, values, residual = rec.storage.finalize()
            if residual is not None:
                self.spilled_bytes_total += residual.bytes
            if cfg.storage == "array":
                hold += cfg.block_span * cm.array_flush_cycles_per_element
            else:
                hold += len(indices) * cm.array_flush_cycles_per_element
            outputs.extend(self._emit_sparse(indices, values, packet.block_id))
            completed = rec.state.key
            self.blocks_completed += 1

        entry = max(t, rec.lock_free_at)
        wait = entry - t
        finish = entry + hold
        rec.lock_free_at = finish

        if completed is not None:
            l1 = ctx.switch.clusters[rec.home_cluster].l1
            l1.release(rec.memory_bytes, finish)
            ctx.switch.telemetry.working_memory_bytes.add(finish, -rec.memory_bytes)
            self._budget_used[rec.home_cluster] -= rec.memory_bytes
            del self._blocks[completed]

        return HandlerResult(
            finish_time=finish,
            outputs=outputs,
            completed_block=completed,
            wait_cycles=wait,
        )

    # ------------------------------------------------------------------
    def _emit_sparse(
        self, indices: np.ndarray, values: np.ndarray, block_id: int
    ) -> list[SwitchPacket]:
        """Packetize (indices, values) toward the parent."""
        cfg = self.config
        per_packet = cfg.elements_per_packet
        n = len(indices)
        n_shards = max(1, -(-n // per_packet))
        out: list[SwitchPacket] = []
        for s in range(n_shards):
            lo, hi = s * per_packet, min(n, (s + 1) * per_packet)
            out.append(
                SwitchPacket(
                    allreduce_id=cfg.allreduce_id,
                    block_id=block_id,
                    port=PARENT_PORT,
                    payload=values[lo:hi].copy(),
                    indices=indices[lo:hi].copy(),
                    last_of_block=(s == n_shards - 1),
                    shard_count=n_shards,
                )
            )
        return out

    @property
    def in_flight_blocks(self) -> int:
        return len(self._blocks)
