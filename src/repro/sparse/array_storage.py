"""Dense-span array block storage (paper Sec. 7).

"For denser data, Flare uses a contiguous memory buffer of the size of
the block.  From a computational perspective, this is the design with
the lowest latency, because the handler simply needs to store the
element in a specific position.  However, when the reduction is
completed, the buffer needs to be entirely scanned and only the non-zero
elements inserted in the packet.  Moreover, the memory consumption will
be equal to that of the dense case."

No spilling, no extra traffic — but memory ∝ block span (1/density),
which is why Fig. 14 has no array bars at 1% density: the 600 KiB-per-
block arrays of all concurrently processed blocks do not fit in Flare's
working memory (we reproduce that as an explicit capacity failure).
"""

from __future__ import annotations

import numpy as np


class ArrayStorage:
    """Per-block aggregation state backed by a span-sized dense array."""

    kind = "array"

    def __init__(self, span: int, dtype: str = "float32") -> None:
        if span < 1:
            raise ValueError("span must be >= 1")
        self.span = span
        self._values = np.zeros(span, dtype=dtype)
        self.inserted_elements = 0

    def insert(self, indices: np.ndarray, values: np.ndarray) -> list:
        """Indexed accumulate; O(1) per element, never spills."""
        idx = np.asarray(indices)
        self.inserted_elements += len(idx)
        # Duplicate indices within one packet are legal for sum.
        np.add.at(self._values, idx, values)
        return []

    def finalize(self) -> tuple[np.ndarray, np.ndarray, None]:
        """Scan the span, extract non-zeros (the flush cost the cost
        model charges per span element)."""
        indices = np.flatnonzero(self._values).astype(np.int32)
        return indices, self._values[indices].copy(), None

    @property
    def memory_bytes(self) -> int:
        """Resident bytes: the dense value array plus a touched map of
        one bit per element, charged at a byte for model simplicity (a
        sum needs no map, so none is allocated)."""
        return int(self._values.nbytes + self.span)

    @property
    def spilled_bytes(self) -> int:
        return 0

    @property
    def spilled_elements(self) -> int:
        return 0
