"""Summary telemetry for switch experiments.

Collects the quantities the paper reports: the working-memory peak
(Fig. 7 right; the input-buffer peak of Fig. 7 center is the L2 packet
region's, :attr:`repro.pspin.memory.MemoryRegion.peak_bytes`), handler
and cycle counters, and wire counters (bytes in/out, for Fig. 14's
extra-traffic panel).  Gauges keep peaks, not series: Fig. 5's queue
length Q is
:meth:`repro.pspin.scheduler.HierarchicalFCFSScheduler.queue_length`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Counter:
    """Monotonic counter with a helper for rate computation."""

    value: float = 0.0

    def add(self, amount: float) -> None:
        self.value += amount


class DeltaGauge:
    """A gauge fed by (time, delta) events that may arrive out of order.

    Handlers are evaluated eagerly at dispatch time but release working
    memory at *future* timestamps; this gauge therefore accumulates
    deltas in two flat lists and computes the peak of the time-ordered
    profile lazily by a stable sort and a scan.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.deltas: list[float] = []
        self._cache_len = -1
        self._peak = 0.0

    def add(self, time: float, delta: float) -> None:
        self.times.append(time)
        self.deltas.append(delta)

    def extend(self, times: list[float], deltas: list[float]) -> None:
        """Append a run of events in call order."""
        self.times.extend(times)
        self.deltas.extend(deltas)

    @property
    def peak(self) -> float:
        """Peak of the running sum in time order (same-instant events
        keep their call order); never below 0."""
        if self._cache_len != len(self.times):
            if self.times:
                order = np.argsort(np.asarray(self.times, dtype=np.float64), kind="stable")
                values = np.cumsum(np.asarray(self.deltas, dtype=np.float64)[order])
                self._peak = max(0.0, float(values.max()))
            self._cache_len = len(self.times)
        return self._peak


@dataclass
class Telemetry:
    """Bundle of counters/gauges one switch run produces."""

    working_memory_bytes: DeltaGauge = field(default_factory=lambda: DeltaGauge("working_memory_bytes"))
    bytes_in: Counter = field(default_factory=Counter)
    bytes_out: Counter = field(default_factory=Counter)
    packets_in: Counter = field(default_factory=Counter)
    packets_out: Counter = field(default_factory=Counter)
    handler_invocations: Counter = field(default_factory=Counter)
    busy_cycles: Counter = field(default_factory=Counter)
    contention_wait_cycles: Counter = field(default_factory=Counter)
    icache_fills: Counter = field(default_factory=Counter)
    dropped_packets: Counter = field(default_factory=Counter)
    deferred_arrivals: Counter = field(default_factory=Counter)
    stalled_admissions: Counter = field(default_factory=Counter)
