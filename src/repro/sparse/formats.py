"""Sparse data formats and packetization (paper Sec. 7, Fig. 12).

Rules the paper derives for sparse packetization:

* **Block span**: hosts split the index space into blocks whose span is
  chosen so a block's expected non-zeros fill one packet:
  ``span = elements_per_packet / density``.
* **One block per packet**: a packet never carries elements of two
  blocks — the host sends a partially filled packet at a block boundary
  instead, so the switch learns the block id from the header alone.
* **Block split**: a block with more non-zeros than a packet holds is
  split into several *shards*; the last shard carries the shard count so
  the switch knows when the child's contribution is complete.
* **Empty blocks**: an all-zero block still produces one header-only
  packet, so children counters advance.

Indices inside a packet are block-relative (int32), values follow the
allreduce dtype; each pair costs 8 bytes on the wire for fp32/int32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rngtools import seeded_rng


@dataclass
class SparseChunk:
    """One packet's worth of a block: (indices, values) + shard info."""

    block_id: int
    indices: np.ndarray        # block-relative positions, int32
    values: np.ndarray
    last_of_block: bool
    shard_count: int

    @property
    def n_elements(self) -> int:
        return int(len(self.values))

    @property
    def wire_bytes(self) -> int:
        """Payload bytes: 4 B index + value bytes per element."""
        return int(self.indices.nbytes + self.values.nbytes)


@dataclass
class SparseBlock:
    """A host's contribution to one reduction block."""

    block_id: int
    span: int                  # elements covered by the block
    indices: np.ndarray        # block-relative, sorted, unique
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must align")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.span
        ):
            raise ValueError("indices out of block span")

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    def to_dense(self, dtype=None) -> np.ndarray:
        out = np.zeros(self.span, dtype=dtype or self.values.dtype)
        out[self.indices] = self.values
        return out


def sparsify_dense(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract (indices, values) of the non-zeros of a dense vector."""
    idx = np.flatnonzero(dense).astype(np.int32)
    return idx, dense[idx]


def split_into_blocks(
    indices: np.ndarray, values: np.ndarray, total_span: int, block_span: int
) -> list[SparseBlock]:
    """Partition a sparse vector into fixed-span reduction blocks.

    Produces a block for *every* span window (including empty ones) —
    the empty-block rule needs them downstream.
    """
    if block_span < 1:
        raise ValueError("block_span must be >= 1")
    n_blocks = -(-total_span // block_span)
    order = np.argsort(indices, kind="stable")
    indices = np.asarray(indices)[order]
    values = np.asarray(values)[order]
    block_of = indices // block_span
    boundaries = np.searchsorted(block_of, np.arange(n_blocks + 1))
    blocks: list[SparseBlock] = []
    for b in range(n_blocks):
        lo, hi = boundaries[b], boundaries[b + 1]
        span = min(block_span, total_span - b * block_span)
        blocks.append(
            SparseBlock(
                block_id=b,
                span=span,
                indices=(indices[lo:hi] - b * block_span).astype(np.int32),
                values=values[lo:hi],
            )
        )
    return blocks


def packetize_block(block: SparseBlock, max_elements: int) -> list[SparseChunk]:
    """Split one block into packet-sized shards (paper's "Block split").

    Always emits at least one chunk — an empty one for an all-zero block
    (paper: "we still send a packet with no elements ... so that the
    switch can increase the children counter nevertheless").
    """
    if max_elements < 1:
        raise ValueError("max_elements must be >= 1")
    n = block.nnz
    n_shards = max(1, -(-n // max_elements))
    chunks: list[SparseChunk] = []
    for s in range(n_shards):
        lo = s * max_elements
        hi = min(n, lo + max_elements)
        chunks.append(
            SparseChunk(
                block_id=block.block_id,
                indices=block.indices[lo:hi],
                values=block.values[lo:hi],
                last_of_block=(s == n_shards - 1),
                shard_count=n_shards,
            )
        )
    return chunks


@dataclass
class SparseWorkload:
    """Per-host sparse blocks plus the generation parameters."""

    blocks: list[list[SparseBlock]]     # [host][block]
    n_hosts: int
    n_blocks: int
    block_span: int
    density: float
    dtype: str

    def golden_dense_sum(self, block_id: int) -> np.ndarray:
        """Numpy golden model: dense element-wise sum of one block."""
        acc = self.blocks[0][block_id].to_dense()
        for h in range(1, self.n_hosts):
            acc = acc + self.blocks[h][block_id].to_dense()
        return acc

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every host's non-zeros as ``(positions, values)`` in host
        order, a position being ``block * block_span + index``."""
        span = self.block_span
        pos, vals = [], []
        for host in self.blocks:
            for b, blk in enumerate(host):
                pos.append(blk.indices + np.int64(b * span))
                vals.append(blk.values)
        return np.concatenate(pos), np.concatenate(vals)

    def golden_dense_sums(self, flat=None) -> np.ndarray:
        """:meth:`golden_dense_sum` of every block at once, as rows of a
        ``(n_blocks, block_span)`` array: one ``np.add.at`` over
        :meth:`flat` (or ``flat``), which adds each element's values in
        host order.  Bitwise equal to the per-block sums, which only add
        ``0.0`` where a host has no value (``x + 0.0 == x``; a position
        every host holds as ``-0.0`` sums to ``+0.0`` here)."""
        pos, vals = self.flat() if flat is None else flat
        out = np.zeros((self.n_blocks, self.block_span), vals.dtype)
        np.add.at(out.reshape(-1), pos, vals)
        return out


def make_sparse_workload(
    n_hosts: int,
    n_blocks: int,
    elements_per_packet: int,
    density: float,
    dtype: str = "float32",
    seed: int = 0,
    correlation: float = 0.0,
) -> SparseWorkload:
    """Generate per-host sparse blocks with a target density.

    Each block spans ``elements_per_packet / density`` positions, of
    which each host populates ``elements_per_packet`` on average —
    the paper's packet-filling block-span rule.

    ``correlation`` in [0, 1] biases hosts toward a shared "hot" index
    set (fraction of each host's non-zeros drawn from a common subset of
    the span), modeling top-k gradient selection where large-magnitude
    coordinates coincide across workers; 0 gives independent uniform
    positions.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if not 0 <= correlation <= 1:
        raise ValueError("correlation must be in [0, 1]")
    span = max(1, int(round(elements_per_packet / density)))
    rng = seeded_rng(seed)
    hot_size = max(1, elements_per_packet)
    blocks: list[list[SparseBlock]] = [[] for _ in range(n_hosts)]
    for b in range(n_blocks):
        hot = rng.choice(span, size=min(hot_size, span), replace=False)
        for h in range(n_hosts):
            nnz = min(span, rng.poisson(elements_per_packet)) if density < 1 else span
            nnz = max(0, min(nnz, span))
            n_hot = int(round(correlation * nnz))
            picks = []
            if n_hot > 0:
                picks.append(rng.choice(hot, size=min(n_hot, len(hot)), replace=False))
            n_cold = nnz - (len(picks[0]) if picks else 0)
            if n_cold > 0:
                picks.append(rng.choice(span, size=n_cold, replace=False))
            if len(picks) == 2:
                # Hot and cold picks may overlap: merge them.
                idx = np.unique(np.concatenate(picks))
            elif picks:
                # A draw without replacement is already unique.
                idx = np.sort(picks[0])
            else:
                idx = np.array([], dtype=np.int64)
            values = rng.integers(1, 7, size=len(idx)).astype(dtype)
            blocks[h].append(
                SparseBlock(
                    block_id=b,
                    span=span,
                    indices=idx.astype(np.int32),
                    values=values,
                )
            )
    return SparseWorkload(
        blocks=blocks,
        n_hosts=n_hosts,
        n_blocks=n_blocks,
        block_span=span,
        density=density,
        dtype=dtype,
    )
