"""The sparse design of the switch-level allreduce (Fig. 13/14 simulated
results).

:func:`repro.core.allreduce.plan_switch_allreduce` with a ``density``
plans this design; the shared :meth:`~repro.core.allreduce
.SwitchAllreducePlan.execute` builds the switch, synthesizes the
arrivals, runs, scales the bandwidth and raises infeasibility.
:class:`SparseDesign` does only what is sparse: it installs the Sec. 7
handler (hash or array storage), packetizes a sparse workload at the
target density into one :class:`~repro.sparse.fastpath
.SparsePacketTrain`, and collects per-block outputs, storage memory and
the extra traffic caused by hash spilling.

The outputs are reassembled from the egress in egress order.  After a
fast-path run that is the kernel's one
:class:`~repro.sparse.fastpath.SparseEgressRecord`, read as flat arrays
without building a packet; after a DES run, the packet list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.densify import SPARSE_ELEMENT_BYTES
from repro.sparse.fastpath import SparseEgressRecord, SparsePacketTrain
from repro.sparse.formats import SparseWorkload, make_sparse_workload
from repro.sparse.handlers import SparseAggregationHandler, SparseHandlerConfig


@dataclass
class SparseDesign:
    """Sparse aggregation (Sec. 7) on the switch.

    ``data_bytes`` of the plan is the *sparsified* per-host volume
    (indices + values), matching the paper's "Data Size (Sparsified)"
    axes; a block's shards from one host go back-to-back,
    ``shard_delta`` cycles apart.
    """

    hconf: SparseHandlerConfig
    n_blocks: int
    shard_delta: float
    correlation: float = 0.0

    element_bytes = SPARSE_ELEMENT_BYTES

    @property
    def label(self) -> str:
        return f"sparse-{self.hconf.storage}"

    def describe(self) -> dict:
        return {"storage": self.hconf.storage, "density": self.hconf.density}

    def handler(self) -> SparseAggregationHandler:
        return SparseAggregationHandler(self.hconf)

    def train(self, workload, seed: int, arrivals):
        """``(train, workload, n_blocks)``: the generated workload, or the
        caller's ``SparseWorkload``, packetized along ``arrivals(n_blocks=)``."""
        cfg = self.hconf
        if workload is None:
            workload = make_sparse_workload(
                n_hosts=cfg.n_children,
                n_blocks=self.n_blocks,
                elements_per_packet=cfg.elements_per_packet,
                density=cfg.density,
                dtype=cfg.dtype_name,
                seed=seed,
                correlation=self.correlation,
            )
        elif workload.n_hosts != cfg.n_children:
            raise ValueError(
                f"workload has {workload.n_hosts} hosts but the switch "
                f"aggregates {cfg.n_children} children"
            )
        elif workload.block_span > cfg.block_span:
            raise ValueError(
                f"workload block span {workload.block_span} exceeds the "
                f"handler's span {cfg.block_span} at density {cfg.density}"
            )
        times, hosts, blocks = arrivals(n_blocks=workload.n_blocks)
        train = SparsePacketTrain.from_workload(
            cfg.allreduce_id, workload, times, hosts, blocks,
            cfg.elements_per_packet, self.shard_delta,
        )
        if train.values.dtype != np.dtype(cfg.dtype_name):
            raise ValueError(
                f"workload values are {train.values.dtype} but dtype is {cfg.dtype_name}"
            )
        return train, workload, workload.n_blocks

    def collect(self, switch, handler, workload: SparseWorkload, verify: bool) -> dict:
        """Per-block dense outputs, checked against the workload's golden
        sums, and the storage and traffic fields of the result."""
        n_blocks, span = workload.n_blocks, workload.block_span
        record = switch.sole_egress_record()
        outputs, egress = reassemble_egress(
            switch.egress if record is None else record, n_blocks, span, self.hconf.dtype_name
        )
        # Ideal egress: the fully aggregated union of each block, once.
        flat = workload.flat()
        mark = np.zeros(n_blocks * span, np.bool_)
        mark[flat[0]] = True
        ideal = int(np.count_nonzero(mark)) * SPARSE_ELEMENT_BYTES
        if verify:
            golden = workload.golden_dense_sums(flat)
            for b in range(n_blocks):
                got = outputs.get(b)
                if got is None:
                    raise AssertionError(f"block {b} never completed")
                if not np.allclose(got, golden[b], rtol=1e-5, atol=1e-5):
                    raise AssertionError(f"block {b}: sparse aggregation mismatch")
        return dict(
            outputs=outputs,
            storage=self.hconf.storage,
            density=self.hconf.density,
            block_memory_bytes=handler.peak_block_memory,
            egress_payload_bytes=egress,
            ideal_egress_bytes=ideal,
            spilled_bytes=handler.spilled_bytes_total,
            # (actual egress - ideal egress) / ideal egress * 100: how
            # much more traffic leaves the switch than perfect
            # aggregation would produce ("for 20% data density, spilling
            # doubles the network traffic" == ~100%).
            extra_traffic_pct=(
                100.0 * max(0, egress - ideal) / ideal if ideal else 0.0
            ),
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
