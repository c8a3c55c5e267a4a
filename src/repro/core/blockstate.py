"""Per-block completion tracking (paper Secs. 4.1 and 7).

Dense blocks complete when one packet has been aggregated from each
child (children counter).  To survive retransmissions the counter is
replaced by a per-port bitmap: a set bit means "already aggregated, do
not aggregate again" (Sec. 4.1).  Sparse blocks additionally need a
*shard counter* per child, because a child may split one block across
several packets and announces the shard count in the last one (Sec. 7,
"Block split").
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ChildrenBitmap:
    """Retransmission-safe children tracking: one bit per port.

    >>> b = ChildrenBitmap(3)
    >>> b.mark(0), b.mark(0), b.mark(1), b.mark(2)
    (True, False, True, True)
    >>> b.complete
    True
    """

    def __init__(self, n_children: int) -> None:
        if n_children < 1:
            raise ValueError("need at least one child")
        self.n_children = n_children
        self._bits = 0

    def mark(self, port: int) -> bool:
        """Mark a packet received from ``port``.

        Returns True if this is the *first* packet from that port (so the
        payload must be aggregated) and False for a duplicate /
        retransmission (already aggregated — skip).
        """
        if not 0 <= port < self.n_children:
            raise ValueError(f"port {port} out of range [0, {self.n_children})")
        bit = 1 << port
        if self._bits & bit:
            return False
        self._bits |= bit
        return True

    def seen(self, port: int) -> bool:
        return bool(self._bits & (1 << port))

    @property
    def count(self) -> int:
        return bin(self._bits).count("1")

    @property
    def complete(self) -> bool:
        return self.count == self.n_children


@dataclass
class ShardTracker:
    """Sparse per-child shard accounting (Sec. 7).

    A child may split a block into ``shard_count`` packets; the count is
    only learned from the packet flagged ``last_of_block``.  The child is
    complete when the announced count has been received.
    """

    received: int = 0
    announced: int | None = None

    def on_packet(self, last_of_block: bool, shard_count: int) -> None:
        self.received += 1
        if last_of_block:
            if self.announced is not None and self.announced != shard_count:
                raise ValueError(
                    f"conflicting shard counts announced: {self.announced} vs {shard_count}"
                )
            self.announced = shard_count

    @property
    def complete(self) -> bool:
        return self.announced is not None and self.received >= self.announced


@dataclass
class BlockState:
    """State the switch keeps for one in-flight reduction block."""

    key: tuple[int, int]
    n_children: int
    bitmap: ChildrenBitmap = field(init=False)
    shards: dict[int, ShardTracker] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bitmap = ChildrenBitmap(self.n_children)

    # Dense path ------------------------------------------------------
    def mark_dense(self, port: int) -> bool:
        """Dense: one packet per child.  Returns whether to aggregate."""
        return self.bitmap.mark(port)

    # Sparse path -----------------------------------------------------
    def mark_sparse(self, port: int, last_of_block: bool, shard_count: int) -> None:
        """Sparse: count shards; flips the child bit on its last shard."""
        tracker = self.shards.setdefault(port, ShardTracker())
        tracker.on_packet(last_of_block, shard_count)
        if tracker.complete and not self.bitmap.seen(port):
            self.bitmap.mark(port)

    @property
    def complete(self) -> bool:
        return self.bitmap.complete
