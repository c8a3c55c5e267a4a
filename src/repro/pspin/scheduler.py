"""Packet-to-core scheduling policies (paper Sec. 5).

Two policies:

* :class:`FCFSScheduler` — "by default, packets are scheduled to the
  cores with a First Come First Serve policy, so that they are evenly
  distributed across the cores."  Any queued packet may start on any
  free core.  With per-cluster L1s this causes remote-L1 traffic, which
  handlers penalize (paper: remote L1 access latency is up to 25x the
  local one).

* :class:`HierarchicalFCFSScheduler` — "we assign packets belonging to
  the same block with an FCFS policy to the same subset of cores, and
  different blocks to different subsets."  Subsets have size S and never
  span a cluster when S <= C, so all L1 accesses stay local; the price
  is bursty per-subset queues (Fig. 5 B), quantified by Eq. 1.

Both expose the same interface: ``enqueue`` a packet, then ``dispatch``
returns (hpu, packet) pairs that may start *now*.  The switch drives
dispatch on arrivals and on handler completions.
"""

from __future__ import annotations

from collections import deque

from repro.pspin.hpu import HPU
from repro.pspin.packets import SwitchPacket


class FCFSScheduler:
    """Single global FIFO; any free core takes the head packet."""

    name = "fcfs"

    def __init__(self, hpus: list[HPU]) -> None:
        self._hpus = hpus
        self._queue: deque[SwitchPacket] = deque()
        self._n_queued = 0

    def enqueue(self, packet: SwitchPacket) -> None:
        self._queue.append(packet)
        self._n_queued += 1

    def dispatch(self, now: float) -> list[tuple[HPU, SwitchPacket]]:
        """Pair free cores with queued packets in FIFO order."""
        started: list[tuple[HPU, SwitchPacket]] = []
        if not self._queue:
            return started
        for hpu in self._hpus:
            if not self._queue:
                break
            if hpu.is_free(now):
                started.append((hpu, self._queue.popleft()))
        self._n_queued -= len(started)
        return started

    def queued(self) -> int:
        return self._n_queued

    def subset_of(self, packet: SwitchPacket) -> tuple[int, ...]:
        """All cores are eligible under plain FCFS."""
        return tuple(h.hpu_id for h in self._hpus)

    def release_block(self, key: tuple[int, int]) -> None:
        """No per-block state to release."""

class HierarchicalFCFSScheduler:
    """Block-affine scheduling onto fixed-size core subsets.

    ``subset_size`` is the paper's S.  Subsets are contiguous core
    ranges, so for S <= C a subset lies within one cluster and the
    block's aggregation buffer is always in the local L1.

    Blocks are mapped to subsets round-robin *on first sight*, which is
    what evens out load in the long run while preserving the bursty
    short-term behaviour Sec. 5 analyzes.
    """

    name = "hierarchical-fcfs"

    def __init__(self, hpus: list[HPU], subset_size: int) -> None:
        if subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if len(hpus) % subset_size != 0:
            raise ValueError(
                f"subset_size {subset_size} must divide core count {len(hpus)}"
            )
        self._hpus = hpus
        self.subset_size = subset_size
        self.n_subsets = len(hpus) // subset_size
        self._queues: list[deque[SwitchPacket]] = [deque() for _ in range(self.n_subsets)]
        self._block_to_subset: dict[tuple[int, int], int] = {}
        self._next_subset = 0
        self._n_queued = 0
        #: Subsets that might have dispatchable work (avoids full scans).
        self._active: set[int] = set()

    def _subset_for(self, packet: SwitchPacket) -> int:
        key = packet.key()
        subset = self._block_to_subset.get(key)
        if subset is None:
            subset = self._next_subset
            self._next_subset = (self._next_subset + 1) % self.n_subsets
            self._block_to_subset[key] = subset
        return subset

    def enqueue(self, packet: SwitchPacket) -> None:
        subset = self._subset_for(packet)
        self._queues[subset].append(packet)
        self._active.add(subset)
        self._n_queued += 1

    def dispatch(self, now: float) -> list[tuple[HPU, SwitchPacket]]:
        started: list[tuple[HPU, SwitchPacket]] = []
        drained: list[int] = []
        for subset in list(self._active):
            queue = self._queues[subset]
            base = subset * self.subset_size
            for hpu in self._hpus[base : base + self.subset_size]:
                if not queue:
                    break
                if hpu.is_free(now):
                    started.append((hpu, queue.popleft()))
            if not queue:
                drained.append(subset)
        for subset in drained:
            self._active.discard(subset)
        self._n_queued -= len(started)
        return started

    def queued(self) -> int:
        return self._n_queued

    def queue_length(self, subset: int) -> int:
        """Current queue length of one subset (Fig. 5's Q)."""
        return len(self._queues[subset])

    def subset_of(self, packet: SwitchPacket) -> tuple[int, ...]:
        """Core ids eligible to process this packet's block."""
        subset = self._subset_for(packet)
        base = subset * self.subset_size
        return tuple(h.hpu_id for h in self._hpus[base : base + self.subset_size])

    def release_block(self, key: tuple[int, int]) -> None:
        """Forget a completed block's subset mapping (bounded state)."""
        self._block_to_subset.pop(key, None)
