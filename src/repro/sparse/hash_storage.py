"""Hash-table block storage with a spill buffer (paper Sec. 7).

"Flare stores the data and the indexes in a hash table.  To avoid
expensive collision resolution, when there is a collision, the colliding
element is put in a spill buffer.  When the spill buffer is full, the
spilled data is immediately sent to the next switch (or to the hosts)."

The behavioral model is a single-probe open table: an element hashes to
exactly one slot.  If the slot is empty it claims it; if the slot holds
the *same* index the values aggregate; if it holds a different index the
element spills.  Spilled elements are unaggregated extra traffic — the
quantity Fig. 14's right panel reports.

Memory per block is constant in the data density (table slots x 8 B +
spill buffer), which is the hash backend's selling point at high
sparsity; the cost is the spill traffic as the aggregated block's
distinct-index count approaches the table size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Wire bytes per (index, value) element (int32 index + 4-byte value).
ELEMENT_BYTES = 8


def _slot_of(indices: np.ndarray, n_slots: int) -> np.ndarray:
    """Deterministic multiplicative hash (Knuth) into table slots."""
    return ((indices.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(n_slots)).astype(
        np.int64
    )


@dataclass
class SpillEvent:
    """One spill-buffer flush: elements forwarded unaggregated.

    Carries the actual (indices, values) so downstream consumers (the
    parent switch, or the verifying test) can still fold them in — the
    data is extra *traffic*, never lost information.
    """

    indices: np.ndarray
    values: np.ndarray

    @property
    def n_elements(self) -> int:
        return int(len(self.indices))

    @property
    def bytes(self) -> int:
        return self.n_elements * ELEMENT_BYTES


def drain_table(
    keys: np.ndarray, values: np.ndarray, spill_indices, spill_values
) -> tuple[np.ndarray, np.ndarray, SpillEvent | None]:
    """The completed block of a table (``keys`` -1 where empty) and its
    pending spill buffer (sequences in spill order): the table's entries
    sorted by index, with any residual spilled elements merged in (see
    :meth:`HashStorage.finalize`).
    """
    mask = keys != -1
    indices = keys[mask].astype(np.int32)
    values_out = values[mask].copy()
    order = np.argsort(indices, kind="stable")
    indices, values_out = indices[order], values_out[order]
    residual: SpillEvent | None = None
    if len(spill_indices):
        residual = SpillEvent(
            indices=np.asarray(spill_indices, dtype=np.int32),
            values=np.asarray(spill_values, dtype=values.dtype),
        )
        # Residual spilled elements merge into the output where the
        # index already exists, otherwise append (the *next* switch
        # would aggregate them; merging here models the final-hop
        # host doing it, keeping numerics exact).  The adds run in
        # spill order in the table's dtype; a new index starts at
        # -0.0 (0 for ints), the identity of +, so its first element's
        # value is taken bit for bit.
        merged, where = np.unique(
            np.concatenate([indices, residual.indices]), return_inverse=True
        )
        out = np.full(len(merged), -0.0, dtype=values.dtype)
        out[where[: len(indices)]] = values_out
        np.add.at(out, where[len(indices) :], residual.values)
        indices, values_out = merged, out
    return indices, values_out, residual


class HashStorage:
    """Per-block aggregation state backed by a single-probe hash table."""

    kind = "hash"

    def __init__(
        self,
        n_slots: int,
        dtype: str = "float32",
        spill_capacity: int = 128,
    ) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if spill_capacity < 1:
            raise ValueError("spill_capacity must be >= 1")
        self.n_slots = n_slots
        self.spill_capacity = spill_capacity
        self._keys = np.full(n_slots, -1, dtype=np.int64)
        self._values = np.zeros(n_slots, dtype=dtype)
        self._spill_indices: list[int] = []
        self._spill_values: list = []
        self.spill_events: list[SpillEvent] = []
        self.spilled_elements = 0
        self.inserted_elements = 0

    # ------------------------------------------------------------------
    def insert(self, indices: np.ndarray, values: np.ndarray) -> list[SpillEvent]:
        """Insert one packet's elements; returns any spill flushes.

        Elements are processed in packet order (the handler holds the
        block's critical section, so inserts are serialized), resolved
        as one batch: the first element to reach an empty slot claims
        it, later elements carrying the slot's key aggregate in packet
        order, and the rest spill, flushing every ``spill_capacity``
        spilled elements.
        """
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        self.inserted_elements += len(idx)
        slots = _slot_of(idx, self.n_slots)
        empty = np.where(self._keys[slots] == -1)[0]
        _u, first_pos = np.unique(slots[empty], return_index=True)
        claims = empty[first_pos]
        self._keys[slots[claims]] = idx[claims]
        self._values[slots[claims]] = vals[claims]
        rest = np.ones(len(idx), dtype=bool)
        rest[claims] = False
        same = rest & (self._keys[slots] == idx)
        np.add.at(self._values, slots[same], vals[same])
        spill = np.where(rest & ~same)[0]
        flushed: list[SpillEvent] = []
        if len(spill):
            self._spill_indices.extend(int(i) for i in idx[spill])
            self._spill_values.extend(vals[spill])
            self.spilled_elements += len(spill)
            while len(self._spill_indices) >= self.spill_capacity:
                flushed.append(self._flush_chunk(self.spill_capacity))
        self.spill_events.extend(flushed)
        return flushed

    def _flush_chunk(self, n: int) -> SpillEvent:
        event = SpillEvent(
            indices=np.array(self._spill_indices[:n], dtype=np.int32),
            values=np.array(self._spill_values[:n], dtype=self._values.dtype),
        )
        del self._spill_indices[:n]
        del self._spill_values[:n]
        return event

    # ------------------------------------------------------------------
    def finalize(self) -> tuple[np.ndarray, np.ndarray, SpillEvent | None]:
        """Drain the table (+ any residual spill) at block completion.

        Returns ``(indices, values, residual_spill)`` where the residual
        spill covers elements still in the buffer (they ride along with
        the final result packet rather than a dedicated flush).
        """
        out = drain_table(
            self._keys, self._values, self._spill_indices, self._spill_values
        )
        self._spill_indices.clear()
        self._spill_values.clear()
        return out

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Resident bytes: keys + values + spill buffer budget."""
        return int(
            self._keys.nbytes
            + self._values.nbytes
            + self.spill_capacity * ELEMENT_BYTES
        )

    @property
    def spilled_bytes(self) -> int:
        return self.spilled_elements * ELEMENT_BYTES
