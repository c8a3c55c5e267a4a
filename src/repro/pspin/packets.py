"""Switch-level packet records.

A packet as seen by the processing unit: a small header identifying the
allreduce and the reduction block, plus either a dense payload or a
sparse (indices, values) pair.  Payloads are numpy arrays so handlers
compute *real* aggregation results — the model is behavioral for timing
but exact for data, which is what lets the test suite check numerics and
reproducibility end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Per-packet header carried in addition to the payload (allreduce id,
#: block id, shard count, flags).  Sec. 4: "a small header containing the
#: identifier of the allreduce and of the packet within that allreduce".
HEADER_BYTES = 16


@dataclass(slots=True)
class SwitchPacket:
    """One packet arriving at the switch processing unit.

    Attributes
    ----------
    allreduce_id:
        Unique id assigned by the network manager; packets from different
        allreduces are never aggregated together (Sec. 4).
    block_id:
        Position of the reduction block within the allreduce.
    port:
        Ingress port (== child index in the reduction tree).
    payload:
        Dense values (1-D array) or sparse values when ``indices`` set.
    indices:
        For sparse packets, the positions of ``payload`` values within
        the block span (Sec. 7).
    last_of_block:
        Sparse only — marks the final shard from this child; carries
        ``shard_count`` so the switch knows how many packets to expect
        from this child for this block (Sec. 7, "Block split").
    shard_count:
        Number of packets this child used for this block (valid when
        ``last_of_block``).
    is_retransmission:
        Set by failure-injection tests; the bitmap logic must not
        aggregate the payload twice (Sec. 4.1).
    """

    allreduce_id: int
    block_id: int
    port: int
    payload: np.ndarray
    indices: Optional[np.ndarray] = None
    last_of_block: bool = True
    shard_count: int = 1
    is_retransmission: bool = False
    arrival_time: float = field(default=0.0, compare=False)
    #: Set by the switch ingress after classification (slotted class:
    #: the attribute must be declared here).
    _handler_name: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def is_sparse(self) -> bool:
        return self.indices is not None

    @property
    def payload_bytes(self) -> int:
        """Bytes on the wire for the payload (+ indices for sparse)."""
        n = int(self.payload.nbytes)
        if self.indices is not None:
            n += int(self.indices.nbytes)
        return n

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire including the Flare header."""
        return self.payload_bytes + HEADER_BYTES

    def key(self) -> tuple[int, int]:
        """Aggregation key: packets with equal keys reduce together."""
        return (self.allreduce_id, self.block_id)


class EgressRecord:
    """One fast-path commit's egress, kept unexpanded.

    ``entries`` are the completed blocks as ``(time, block_id)`` pairs
    in egress order, ``payloads`` maps each block to its aggregated
    result, and ``ports`` lists the egress ports.  With ``multicast``
    every port gets its own copy of the block (what the per-packet
    handlers emit); without it the single port's packet carries the
    payload itself.  :meth:`expand` builds the ``(time, SwitchPacket)``
    entries the per-packet path would have appended, ports in list
    order within each block.
    """

    __slots__ = ("allreduce_id", "entries", "payloads", "ports", "multicast")

    def __init__(
        self,
        allreduce_id: int,
        entries: list[tuple[float, int]],
        payloads: dict[int, np.ndarray],
        ports: list[int],
        multicast: bool,
    ) -> None:
        self.allreduce_id = allreduce_id
        self.entries = entries
        self.payloads = payloads
        self.ports = ports
        self.multicast = multicast

    def __len__(self) -> int:
        return len(self.entries) * len(self.ports)

    def expand(self) -> list[tuple[float, SwitchPacket]]:
        aid = self.allreduce_id
        ports = self.ports
        payloads = self.payloads
        if not self.multicast:
            return [
                (t, SwitchPacket(aid, b, p, payloads[b]))
                for t, b in self.entries
                for p in ports
            ]
        out: list[tuple[float, SwitchPacket]] = []
        for t, b in self.entries:
            # One block copy per port, as rows of a single matrix.
            rows = np.repeat(payloads[b][None, :], len(ports), axis=0)
            out.extend(
                (t, SwitchPacket(aid, b, p, row)) for p, row in zip(ports, rows)
            )
        return out
