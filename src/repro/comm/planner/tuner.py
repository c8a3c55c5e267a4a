"""Online re-tuning from live fabric telemetry.

The offline fit prices algorithms for a quiet fabric.  Between issues,
the :class:`OnlineTuner` reads the live signals a running
:class:`~repro.comm.fabric.Fabric` already exposes — in-flight
collective count, attached co-tenants and WFQ queue-depth peaks — and
folds them into one *quantized* congestion level that scales the cost
model's contention term (the ``g`` coefficient).

Quantization matters: the level is written into
``request.params["congestion"]`` before resolution, so it participates
in the plan-cache key.  A smooth float would make every issue a cache
miss; a small integer level means plans are re-derived only when the
fabric's load *regime* changes (idle -> busy -> saturated), which is
exactly when a different algorithm choice can pay off.
"""

from __future__ import annotations

from typing import Optional


class OnlineTuner:
    """Derives a quantized congestion level for a fabric.

    Parameters
    ----------
    fabric:
        The :class:`~repro.comm.fabric.Fabric` to observe.
    max_level:
        Ceiling of the quantized level (default 4).
    queue_depth_threshold:
        WFQ queue-depth peak (messages waiting on one link) above
        which the fabric counts as one level more congested.
    """

    def __init__(
        self,
        fabric,
        *,
        max_level: int = 4,
        queue_depth_threshold: int = 8,
    ) -> None:
        self.fabric = fabric
        self.max_level = int(max_level)
        self.queue_depth_threshold = int(queue_depth_threshold)

    # ------------------------------------------------------------------
    def level(self) -> int:
        """Quantized congestion level in ``0..max_level``.

        Each concurrently in-flight collective is one unit of
        contention; a WFQ queue-depth peak beyond the threshold (links
        already backing up) adds one more.

        Attached co-tenants floor the estimate even before they issue:
        tenants sharing a fabric overwhelmingly issue together
        (BSP-style training steps), so the first arrival of a wave
        would otherwise see an idle wire, greedily pick a
        bandwidth-hungry host schedule, and collide with the seven
        co-tenants right behind it.  Pricing for the co-resident load
        up front keeps the whole wave on contention-tolerant choices.
        """
        level = max(self.fabric.in_flight, self._co_tenants())
        if self._peak_queue_depth() > self.queue_depth_threshold:
            level += 1
        return max(0, min(self.max_level, level))

    def _co_tenants(self) -> int:
        return max(0, len(self.fabric._tenants) - 1)

    def _peak_queue_depth(self) -> int:
        return max(self.fabric.net.queue_depth_peaks().values(), default=0)


def congestion_level(fabric: Optional[object]) -> int:
    """Convenience: the quantized level for ``fabric`` (0 if None)."""
    if fabric is None:
        return 0
    return OnlineTuner(fabric).level()
