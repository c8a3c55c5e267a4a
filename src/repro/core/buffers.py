"""Working-memory aggregation buffers with timed mutual exclusion.

Aggregation buffers live in a cluster's L1 TCDM (Sec. 4.3).  Handlers
aggregate into them inside a critical section; a handler that finds the
buffer locked spins — actively burning its core's cycles — until the
lock frees (Sec. 6.1: handlers are never suspended).

Because the switch model is a discrete-event simulation, the lock is
represented by a ``free_at`` timestamp rather than an actual mutex:
``acquire(now, hold)`` returns the cycle at which the caller *enters*
the critical section, serializing FIFO in event order (which is arrival
order, i.e. exactly the FCFS semantics the paper assumes).

The pool also does the byte accounting against the cluster's L1 region
and the run telemetry, producing Fig. 7's working-memory series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.pspin.memory import MemoryRegion
from repro.pspin.telemetry import Telemetry


@dataclass(slots=True)
class AggregationBuffer:
    """One working-memory buffer holding a partially aggregated block."""

    buffer_id: int
    nbytes: int
    data: np.ndarray
    free_at: float = 0.0       # lock: cycle at which the current holder exits
    filled: bool = False       # holds valid data (tree aggregation cares)

    def acquire(self, now: float, hold_cycles: float) -> tuple[float, float]:
        """Enter the critical section at ``max(now, free_at)``.

        Returns ``(entry_time, wait_cycles)`` and re-locks the buffer
        until ``entry + hold_cycles``.
        """
        entry = max(now, self.free_at)
        self.free_at = entry + hold_cycles
        return entry, entry - now


class BufferPool:
    """Allocates aggregation buffers out of a cluster's L1 region.

    ``allocate`` fails (returns None) when the L1 cannot fit another
    buffer — the caller decides whether that stalls the block or drops
    the packet; the paper avoids the situation by bounding in-flight
    blocks to the number of buffers assigned to the allreduce (Sec. 4.3).
    """

    def __init__(
        self,
        l1: MemoryRegion,
        telemetry: Optional[Telemetry] = None,
        dtype: np.dtype | str = np.float32,
    ) -> None:
        self._l1 = l1
        self._telemetry = telemetry
        self._dtype = np.dtype(dtype)
        self._next_id = 0
        self.active: dict[int, AggregationBuffer] = {}
        self.peak_buffers = 0

    def allocate(self, n_elements: int, now: float) -> Optional[AggregationBuffer]:
        """Claim a zero-initialized buffer of ``n_elements``."""
        nbytes = int(n_elements * self._dtype.itemsize)
        if not self._l1.allocate(nbytes):
            return None
        buf = AggregationBuffer(
            buffer_id=self._next_id,
            nbytes=nbytes,
            data=np.zeros(n_elements, dtype=self._dtype),
        )
        self._next_id += 1
        self.active[buf.buffer_id] = buf
        self.peak_buffers = max(self.peak_buffers, len(self.active))
        if self._telemetry is not None:
            self._telemetry.working_memory_bytes.add(now, nbytes)
        return buf

    def release(self, buf: AggregationBuffer, now: float) -> None:
        """Return a buffer to the pool (block fully aggregated & sent)."""
        if buf.buffer_id not in self.active:
            raise ValueError(f"buffer {buf.buffer_id} is not active")
        del self.active[buf.buffer_id]
        self._l1.release(buf.nbytes, now)
        if self._telemetry is not None:
            self._telemetry.working_memory_bytes.add(now, -buf.nbytes)

    @property
    def used_bytes(self) -> int:
        return sum(b.nbytes for b in self.active.values())
