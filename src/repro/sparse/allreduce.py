"""Switch-level sparse allreduce driver (Fig. 13/14 simulated results).

The sparse counterpart of :mod:`repro.core.allreduce` (registered as
``flare_switch_sparse``): generates a sparse workload at a target
density, packetizes it with the Sec. 7 rules into one
:class:`~repro.sparse.fastpath.SparsePacketTrain`, hands that to the
PsPIN switch with the sparse handler, and reports bandwidth (of
*sparsified* bytes), per-block storage memory, and the extra traffic
caused by hash spilling.

The switch runs the train on the packet-train fast path
(:mod:`repro.sparse.fastpath`) whenever it reproduces the per-packet
DES exactly, and re-injects it packet by packet otherwise — an
infeasible storage choice, for one, reaches the DES and its
``MemoryError``.  ``SparseAllreduceResult.fast_path_used`` says which.

The outputs are reassembled from the egress in egress order.  After a
fast-path run that is the kernel's one
:class:`~repro.sparse.fastpath.SparseEgressRecord`, read as flat arrays
without building a packet; after a DES run, the packet list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.allreduce import fair_share_interarrival, scale_bandwidth
from repro.core.staggered import arrival_arrays
from repro.pspin.costs import CostModel
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.sparse.densify import SPARSE_ELEMENT_BYTES
from repro.sparse.fastpath import SparseEgressRecord, SparsePacketTrain
from repro.sparse.formats import SparseWorkload, make_sparse_workload
from repro.sparse.handlers import SparseAggregationHandler, SparseHandlerConfig
from repro.utils.units import parse_size


@dataclass
class SparseAllreduceResult:
    """Outcome of one simulated sparse allreduce on one switch."""

    storage: str
    density: float
    data_bytes: int                  # sparsified bytes per host (approx)
    n_children: int
    n_blocks: int
    sim_clusters: int
    feasible: bool
    makespan_cycles: float = 0.0
    #: Arrival time of the last packet; ``makespan_cycles`` minus this
    #: is the processing tail the arrival stream does not cover.
    last_arrival_cycles: float = 0.0
    sim_bandwidth_tbps: float = 0.0
    bandwidth_tbps: float = 0.0
    block_memory_bytes: int = 0
    ingress_payload_bytes: int = 0
    egress_payload_bytes: int = 0
    ideal_egress_bytes: int = 0
    spilled_bytes: int = 0
    #: (actual egress - ideal egress) / ideal egress * 100: how much
    #: more traffic leaves the switch than perfect aggregation would
    #: produce ("for 20% data density, spilling doubles the network
    #: traffic" == ~100%).
    extra_traffic_pct: float = 0.0
    contention_wait_cycles: float = 0.0
    blocks_completed: int = 0
    #: True when the packet-train fast path simulated the whole run
    #: (False: the per-packet DES did, e.g. for an infeasible run).
    fast_path_used: bool = False
    infeasible_reason: str = ""
    outputs: dict[int, np.ndarray] = field(default_factory=dict)

    def summary(self) -> str:
        # Whole percents hide the paper's sub-1% densities (0.2% -> "0%").
        d = f"{self.density:.0%}" if self.density >= 0.01 else f"{self.density:.2%}"
        if not self.feasible:
            return f"sparse-{self.storage} d={d}: INFEASIBLE ({self.infeasible_reason})"
        return (
            f"sparse-{self.storage} d={d}: "
            f"{self.bandwidth_tbps:.2f} Tbps, block mem "
            f"{self.block_memory_bytes / 1024:.1f} KiB, extra traffic "
            f"{self.extra_traffic_pct:.0f}%"
        )


def sparse_switch_allreduce(
    data_bytes: int | str,
    density: float,
    storage: str = "hash",
    children: int = 64,
    n_clusters: int = 4,
    cores_per_cluster: int = 8,
    dtype: str = "float32",
    correlation: float = 0.0,
    seed: int = 0,
    packet_bytes: int = 1024,
    hash_slots_factor: float = 4.0,
    cost_model: Optional[CostModel] = None,
    workload: Optional[SparseWorkload] = None,
    jitter: float = 1.0,
    verify: bool = True,
) -> SparseAllreduceResult:
    """Sparse switch-level allreduce implementation.

    ``data_bytes`` is the *sparsified* per-host volume (indices +
    values), matching the paper's "Data Size (Sparsified)" axes.
    """
    data_bytes = parse_size(data_bytes)
    cost_model = cost_model or CostModel()
    elements_per_packet = max(1, packet_bytes // SPARSE_ELEMENT_BYTES)
    n_blocks = max(1, data_bytes // (elements_per_packet * SPARSE_ELEMENT_BYTES))
    hconf = SparseHandlerConfig(
        allreduce_id=1,
        n_children=children,
        storage=storage,
        density=density,
        dtype_name=dtype,
        packet_bytes=packet_bytes,
        hash_slots_factor=hash_slots_factor,
    )

    if workload is None:
        workload = make_sparse_workload(
            n_hosts=children,
            n_blocks=n_blocks,
            elements_per_packet=elements_per_packet,
            density=density,
            dtype=dtype,
            seed=seed,
            correlation=correlation,
        )
    else:
        if workload.n_hosts != children:
            raise ValueError(
                f"workload has {workload.n_hosts} hosts but the switch "
                f"aggregates {children} children"
            )
        if workload.block_span > hconf.block_span:
            raise ValueError(
                f"workload block span {workload.block_span} exceeds the "
                f"handler's span {hconf.block_span} at density {density}"
            )
    n_blocks = workload.n_blocks

    switch_cfg = SwitchConfig(
        n_clusters=n_clusters,
        cores_per_cluster=cores_per_cluster,
        cost_model=cost_model,
    )
    # Arrival schedule: blocks staggered like the dense driver; a block's
    # shards from one host go back-to-back.
    delta_sim = fair_share_interarrival(switch_cfg, packet_bytes)
    times, hosts, blocks = arrival_arrays(
        n_hosts=children,
        n_blocks=n_blocks,
        delta=delta_sim,
        staggered=True,
        jitter=jitter,
        seed=seed + 1,
    )
    train = SparsePacketTrain.from_workload(
        1, workload, times, hosts, blocks, elements_per_packet, delta_sim
    )
    if train.values.dtype != np.dtype(dtype):
        raise ValueError(
            f"workload values are {train.values.dtype} but dtype is {dtype}"
        )
    ingress_payload = int(train.indices.nbytes + train.values.nbytes)
    last_arrival = float(train.times[-1])

    switch = PsPINSwitch(switch_cfg)
    handler = SparseAggregationHandler(hconf)
    switch.register_handler(handler)
    switch.install_allreduce(1, handler.name)
    fast_path_used = switch.inject_train(train)
    del train   # free the flat arrays: fallback packets hold their own views

    try:
        makespan = switch.run()
    except MemoryError as exc:
        return SparseAllreduceResult(
            storage=storage,
            density=density,
            data_bytes=data_bytes,
            n_children=children,
            n_blocks=n_blocks,
            sim_clusters=n_clusters,
            feasible=False,
            block_memory_bytes=_probe_block_memory(hconf),
            infeasible_reason=str(exc).split(";")[0],
        )

    record = switch.sole_egress_record()
    dense_out, egress_payload = reassemble_egress(
        switch.egress if record is None else record,
        n_blocks,
        workload.block_span,
        dtype,
    )
    # Ideal egress: the fully aggregated union of each block, once.
    flat = workload.flat()
    mark = np.zeros(n_blocks * workload.block_span, np.bool_)
    mark[flat[0]] = True
    ideal_egress = int(np.count_nonzero(mark)) * SPARSE_ELEMENT_BYTES
    if verify:
        golden = workload.golden_dense_sums(flat)
        for b in range(n_blocks):
            got = dense_out.get(b)
            if got is None:
                raise AssertionError(f"block {b} never completed")
            if not np.allclose(got, golden[b], rtol=1e-5, atol=1e-5):
                raise AssertionError(f"block {b}: sparse aggregation mismatch")

    seconds = makespan / (cost_model.clock_ghz * 1e9) if makespan > 0 else float("inf")
    sim_tbps = ingress_payload * 8.0 / seconds / 1e12 if makespan > 0 else 0.0
    spilled = handler.spilled_bytes_total
    return SparseAllreduceResult(
        storage=storage,
        density=density,
        data_bytes=data_bytes,
        n_children=children,
        n_blocks=n_blocks,
        sim_clusters=n_clusters,
        feasible=True,
        makespan_cycles=makespan,
        last_arrival_cycles=last_arrival,
        sim_bandwidth_tbps=sim_tbps,
        bandwidth_tbps=scale_bandwidth(sim_tbps, n_clusters),
        block_memory_bytes=handler.peak_block_memory,
        ingress_payload_bytes=ingress_payload,
        egress_payload_bytes=egress_payload,
        ideal_egress_bytes=ideal_egress,
        spilled_bytes=spilled,
        extra_traffic_pct=(
            100.0 * max(0, egress_payload - ideal_egress) / ideal_egress
            if ideal_egress
            else 0.0
        ),
        contention_wait_cycles=switch.telemetry.contention_wait_cycles.value,
        blocks_completed=handler.blocks_completed,
        fast_path_used=fast_path_used,
        outputs=dense_out,
    )


def reassemble_egress(egress, n_blocks: int, span: int, dtype):
    """Per-block dense outputs of the switch's egress (final results and
    spill packets) and their payload bytes.

    ``egress`` is a ``(time, packet)`` list or a
    :class:`~repro.sparse.fastpath.SparseEgressRecord`, whose flat
    arrays are read as they are.  One ``np.add.at`` over every egress
    element, in egress order, into an ``(n_blocks, span)`` array: it
    applies elements in order, so each sum is bitwise the per-packet
    accumulation.  Only blocks with egress get an output, keyed in order
    of their first egress packet.
    """
    if isinstance(egress, SparseEgressRecord):
        block_ids, counts = egress.block_ids, np.diff(egress.offsets)
        indices, values = egress.indices, egress.values
        nbytes = indices.nbytes + values.nbytes
    else:
        pkts = [pkt for _t, pkt in egress]
        if not pkts:
            return {}, 0
        block_ids = np.array([pkt.block_id for pkt in pkts], dtype=np.int64)
        counts = [len(pkt.indices) for pkt in pkts]
        indices = np.concatenate([pkt.indices for pkt in pkts])
        values = np.concatenate([pkt.payload for pkt in pkts])
        nbytes = sum(pkt.indices.nbytes + pkt.payload.nbytes for pkt in pkts)
    pos = np.repeat(block_ids * span, counts) + indices
    out = np.zeros((n_blocks, span), dtype=dtype)
    np.add.at(out.reshape(-1), pos, values)
    return {b: out[b] for b in dict.fromkeys(block_ids.tolist())}, int(nbytes)


def _probe_block_memory(hconf: SparseHandlerConfig) -> int:
    """Storage footprint for reporting even when the run is infeasible."""
    handler = SparseAggregationHandler(hconf)
    return handler._make_storage().memory_bytes
