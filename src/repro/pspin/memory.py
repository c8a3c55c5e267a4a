"""Memory capacity and occupancy accounting.

Models the three memories the paper manages explicitly (Sec. 3-4):

* **L2 packet memory** (4 MiB): input buffers — packets occupy it from
  arrival until their handler completes (queueing time + service time).
* **L1 TCDM** (1 MiB per cluster): working memory — aggregation buffers
  live here for the lifetime of a block.
* **L2 handler memory** (4 MiB) and **L2 program memory** (32 KiB) are
  tracked for completeness (handler state / code images).

Each region keeps its current and peak occupancy: the peak is what must
fit, and the L2 packet region's peak is Fig. 7's "Inp. Buff." panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MemoryRegion:
    """A byte-accounted memory region with peak tracking."""

    __slots__ = (
        "name",
        "capacity_bytes",
        "used_bytes",
        "peak_bytes",
        "alloc_failures",
        "release_listener",
    )

    def __init__(self, name: str, capacity_bytes: int) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.peak_bytes = 0
        self.alloc_failures = 0
        #: Optional ``f(release_time)`` hook fired after every release.
        #: The switch uses it to wake packets stalled on working-memory
        #: admission the moment (simulated time) memory frees, instead
        #: of polling on a retry quantum.
        self.release_listener = None

    def allocate(self, nbytes: int) -> bool:
        """Reserve ``nbytes``; returns False (and counts a failure) if full.

        The paper's behaviour on exhaustion is network-specific ("the
        packet is dropped or congestion is notified", Sec. 3 fn. 2); the
        caller decides, we only account.
        """
        if nbytes < 0:
            raise ValueError("negative allocation")
        if self.used_bytes + nbytes > self.capacity_bytes:
            self.alloc_failures += 1
            return False
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        return True

    def release(self, nbytes: int, now: float) -> None:
        """Return ``nbytes`` to the region.

        ``now`` may lie in the simulated future (handlers book releases
        eagerly at their completion timestamps); the listener receives
        it unchanged so wakeups land at the *semantic* release time.
        """
        if nbytes > self.used_bytes:
            raise ValueError(
                f"{self.name}: releasing {nbytes} B but only {self.used_bytes} B in use"
            )
        self.used_bytes -= nbytes
        if self.release_listener is not None:
            self.release_listener(now)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes


@dataclass
class MemoryAccounting:
    """The PsPIN memory map (paper Sec. 3 / Fig. 2 defaults)."""

    l2_packet: MemoryRegion = field(
        default_factory=lambda: MemoryRegion("L2 packet", 4 * 1024 * 1024)
    )
    l2_handler: MemoryRegion = field(
        default_factory=lambda: MemoryRegion("L2 handler", 4 * 1024 * 1024)
    )
    l2_program: MemoryRegion = field(
        default_factory=lambda: MemoryRegion("L2 program", 32 * 1024)
    )

    @staticmethod
    def l1_tcdm() -> MemoryRegion:
        """A fresh per-cluster 1 MiB L1 scratchpad region."""
        return MemoryRegion("L1 TCDM", 1024 * 1024)
