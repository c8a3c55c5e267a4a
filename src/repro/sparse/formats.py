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

A :class:`SparseWorkload` keeps every host's blocks as flat rows, drawn
all at once by :func:`make_sparse_workload`; see DESIGN.md, "Sparse
workload synthesis".
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


class SparseWorkload:
    """Every host's sparse blocks as flat rows.

    Row ``r = host * n_blocks + block`` holds one host's non-zeros of one
    block: ``indices[offsets[r]:offsets[r + 1]]`` (block-relative int32,
    sorted and unique) and the same slice of ``values``.  Rows are
    host-major, so a pass over the flat arrays visits hosts in order.

    ``SparseWorkload(blocks, n_hosts, ...)`` takes a ``[host][block]``
    grid of :class:`SparseBlock` and converts it;
    :meth:`from_rows` takes the flat arrays directly.  ``blocks`` is
    rebuilt from the rows, as views, on first access.
    """

    __slots__ = ("n_hosts", "n_blocks", "block_span", "density", "dtype",
                 "indices", "values", "offsets", "_blocks")

    def __init__(
        self,
        blocks: list[list[SparseBlock]],
        n_hosts: int,
        n_blocks: int,
        block_span: int,
        density: float,
        dtype: str,
    ) -> None:
        if len(blocks) != n_hosts or any(len(host) != n_blocks for host in blocks):
            shape = [len(host) for host in blocks]
            raise ValueError(
                f"blocks must be n_hosts x n_blocks = {n_hosts} x {n_blocks}, "
                f"got {len(blocks)} hosts with {shape} blocks"
            )
        rows = [blk for host in blocks for blk in host]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([blk.nnz for blk in rows], out=offsets[1:])
        if rows:
            indices = np.concatenate([blk.indices for blk in rows])
            values = np.concatenate([blk.values for blk in rows])
        else:
            indices, values = np.zeros(0, np.int32), np.zeros(0, dtype)
        self._init_rows(indices, values, offsets, n_hosts, n_blocks,
                        block_span, density, dtype)

    @classmethod
    def from_rows(
        cls,
        indices: np.ndarray,
        values: np.ndarray,
        offsets: np.ndarray,
        n_hosts: int,
        n_blocks: int,
        block_span: int,
        density: float,
        dtype: str,
    ) -> "SparseWorkload":
        """A workload from its flat rows (see the class docstring)."""
        self = cls.__new__(cls)
        self._init_rows(indices, values, offsets, n_hosts, n_blocks,
                        block_span, density, dtype)
        return self

    def _init_rows(self, indices, values, offsets, n_hosts, n_blocks,
                   block_span, density, dtype) -> None:
        indices, values = np.asarray(indices), np.asarray(values)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) != n_hosts * n_blocks + 1:
            raise ValueError(
                f"offsets must have n_hosts x n_blocks + 1 = "
                f"{n_hosts} x {n_blocks} + 1 entries, got {len(offsets)}"
            )
        if (
            offsets[0] != 0
            or np.any(np.diff(offsets) < 0)
            or offsets[-1] != len(indices)
            or len(indices) != len(values)
        ):
            raise ValueError("offsets must cover the flat indices/values")
        if len(indices) and (indices.min() < 0 or indices.max() >= block_span):
            raise ValueError("indices out of block span")
        self.n_hosts = n_hosts
        self.n_blocks = n_blocks
        self.block_span = block_span
        self.density = density
        self.dtype = dtype
        self.indices = indices.astype(np.int32, copy=False)
        self.values = values
        self.offsets = offsets
        self._blocks: list[list[SparseBlock]] | None = None

    @property
    def blocks(self) -> list[list[SparseBlock]]:
        """The rows as a ``[host][block]`` grid of :class:`SparseBlock`
        views (built on first access)."""
        if self._blocks is None:
            off = self.offsets.tolist()
            idx, vals, nb = self.indices, self.values, self.n_blocks
            self._blocks = [
                [
                    SparseBlock(b, self.block_span,
                                idx[off[r] : off[r + 1]], vals[off[r] : off[r + 1]])
                    for b, r in enumerate(range(h * nb, (h + 1) * nb))
                ]
                for h in range(self.n_hosts)
            ]
        return self._blocks

    def row_nnz(self) -> np.ndarray:
        """Non-zeros per row (``n_hosts * n_blocks``, host-major)."""
        return np.diff(self.offsets)

    def golden_dense_sum(self, block_id: int) -> np.ndarray:
        """Numpy golden model: dense element-wise sum of one block."""
        acc = self.blocks[0][block_id].to_dense()
        for h in range(1, self.n_hosts):
            acc = acc + self.blocks[h][block_id].to_dense()
        return acc

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every host's non-zeros as ``(positions, values)`` in host
        order, a position being ``block * block_span + index``."""
        n_rows = self.n_hosts * self.n_blocks
        block = np.repeat(np.arange(n_rows, dtype=np.int64) % self.n_blocks,
                          self.row_nnz())
        return block * self.block_span + self.indices, self.values

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


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union, duplicates kept, of two sorted arrays."""
    at = np.searchsorted(a, b) + np.arange(len(b))
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    from_b = np.zeros(len(out), dtype=bool)
    from_b[at] = True
    out[at] = b
    out[~from_b] = a
    return out


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array equal to their predecessor."""
    rep = np.zeros(len(keys), dtype=bool)
    rep[1:] = keys[1:] == keys[:-1]
    return rep


def _found(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``x`` present in the sorted array ``a``."""
    if not len(a):
        return np.zeros(len(x), dtype=bool)
    return a[np.minimum(np.searchsorted(a, x), len(a) - 1)] == x


def _uniform_subsets(rng: np.random.Generator, sizes: np.ndarray, n: int) -> np.ndarray:
    """A uniform ``sizes[r]``-subset of ``range(n)`` for every row ``r``,
    as sorted keys ``r * n + position``.

    One ``integers`` call draws every row's positions; positions that
    repeat within a row are redrawn, all rows at once, until none do.
    Each step treats every position alike, so the result is invariant
    under relabelling ``range(n)``, and a distribution over k-subsets
    with that symmetry is uniform.  A row fuller than ``n / 2`` draws
    the positions it leaves out instead: each redraw then collides with
    probability at most 1/2, which bounds the rounds by about
    ``log2`` of the draws.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    flip = 2 * sizes > n
    draws = np.where(flip, n - sizes, sizes)
    base = np.arange(len(sizes), dtype=np.int64) * n
    keys = np.sort(np.repeat(base, draws) + rng.integers(0, n, int(draws.sum())))
    dup = _repeats(keys)
    owed = keys[dup] // n * n          # the row base of every repeat
    keys = keys[~dup]
    extra = keys[:0]                   # redrawn keys, merged in at the end
    while len(owed):
        fresh = np.sort(owed + rng.integers(0, n, len(owed)))
        dup = _repeats(fresh) | _found(keys, fresh) | _found(extra, fresh)
        extra = np.sort(np.concatenate([extra, fresh[~dup]]))
        owed = fresh[dup] // n * n
    keys = _merge(keys, extra)
    if flip.any():
        rows = np.flatnonzero(flip)
        row = keys // n
        left_out = flip[row]
        keep = np.ones((len(rows), n), dtype=bool)
        keep[np.searchsorted(rows, row[left_out]), keys[left_out] % n] = False
        r, pos = np.nonzero(keep)
        keys = _merge(keys[~left_out], base[rows[r]] + pos)
    return keys


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
    which each host populates ``elements_per_packet`` on average (a
    Poisson count) — the paper's packet-filling block-span rule.

    ``correlation`` in [0, 1] biases hosts toward a shared "hot" index
    set (fraction of each host's non-zeros drawn from a common subset of
    the span), modeling top-k gradient selection where large-magnitude
    coordinates coincide across workers; 0 gives independent uniform
    positions.  Per block, the hot set is ``min(elements_per_packet,
    span)`` positions; per row, ``round(correlation * nnz)`` positions
    come from it and the rest from the whole span, the overlap merged
    away.

    Every row is drawn at once (:func:`_uniform_subsets`): a few
    ``Generator`` calls plus one per redraw round, whatever the
    workload's size.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if not 0 <= correlation <= 1:
        raise ValueError("correlation must be in [0, 1]")
    span = max(1, int(round(elements_per_packet / density)))
    rng = seeded_rng(seed)
    n_rows = n_hosts * n_blocks
    if density < 1:
        nnz = np.minimum(rng.poisson(elements_per_packet, n_rows), span)
    else:
        nnz = np.full(n_rows, span, dtype=np.int64)
    hot_size = min(max(1, elements_per_packet), span)
    n_hot = np.minimum(np.rint(correlation * nnz).astype(np.int64), hot_size)
    keys = _uniform_subsets(rng, nnz - n_hot, span)
    if n_hot.any():
        hot = _uniform_subsets(rng, np.full(n_blocks, hot_size), span) % span
        picks = _uniform_subsets(rng, n_hot, hot_size)
        row = picks // hot_size
        hot_pos = hot[row % n_blocks * hot_size + picks % hot_size]
        # Hot and cold picks may overlap: merge them.
        keys = _merge(keys, row * span + hot_pos)
        keys = keys[~_repeats(keys)]
    row = keys // span
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=offsets[1:])
    return SparseWorkload.from_rows(
        (keys - row * span).astype(np.int32),
        rng.integers(1, 7, len(keys), dtype=np.int8).astype(dtype),
        offsets,
        n_hosts=n_hosts,
        n_blocks=n_blocks,
        block_span=span,
        density=density,
        dtype=dtype,
    )
