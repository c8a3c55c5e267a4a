"""Summary telemetry for switch experiments.

Collects the quantities the paper reports: input-buffer occupancy (Fig. 7
center) and working-memory occupancy (Fig. 7 right) as peak and
time-weighted mean, per-HPU utilization, and wire counters (bytes in/out,
for Fig. 14's extra-traffic panel).  Gauges keep summaries, not series:
Fig. 5's queue length Q is
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


class GaugeSeries:
    """A gauge fed (time, value) transitions; keeps peak, time integral
    and last value, so peak and time-weighted mean are exact regardless
    of event spacing."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.peak: float = 0.0
        self._weighted = 0.0
        self._last_t = 0.0
        self._last_v = 0.0

    def record(self, time: float, value: float) -> None:
        if time < self._last_t:
            raise ValueError(f"{self.name}: time went backwards ({time} < {self._last_t})")
        self._weighted += self._last_v * (time - self._last_t)
        self._last_t, self._last_v = time, value
        self.peak = max(self.peak, value)

    def bulk_record_arrays(self, times, values) -> None:
        """Record a pre-sorted run of transitions in one vectorized pass
        (the packet-train fast path commits its reconstructed profile
        this way): peak and the time-weighted integral are computed
        with array ops, bitwise equal to per-sample :meth:`record`
        calls."""
        n = len(times)
        if n == 0:
            return
        t0 = float(times[0])
        if t0 < self._last_t:
            raise ValueError(
                f"{self.name}: time went backwards ({t0} < {self._last_t})"
            )
        # One term per transition, summed in order: ``np.cumsum`` is a
        # sequential scan, so the integral is bitwise the per-sample
        # loop's.
        area = np.empty(n)
        area[0] = self._weighted + self._last_v * (t0 - self._last_t)
        np.multiply(values[:-1], np.diff(times), out=area[1:])
        self._weighted = float(np.cumsum(area)[-1])
        self._last_t = float(times[-1])
        self._last_v = float(values[-1])
        self.peak = max(self.peak, float(values.max()))

    def mean(self, until: float | None = None) -> float:
        """Time-weighted mean up to ``until`` (default: last sample)."""
        end = self._last_t if until is None else until
        if end <= 0:
            return 0.0
        extra = self._last_v * max(0.0, end - self._last_t)
        return (self._weighted + extra) / end

    @property
    def current(self) -> float:
        return self._last_v


class DeltaGauge:
    """A gauge fed by (time, delta) events that may arrive out of order.

    Handlers are evaluated eagerly at dispatch time but release working
    memory at *future* timestamps; this gauge therefore accumulates
    deltas in two flat lists and reconstructs the exact time profile
    (peak, time-weighted mean) lazily by a stable sort and a scan.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.deltas: list[float] = []
        self._cache_len = -1
        self._cache: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def add(self, time: float, delta: float) -> None:
        self.times.append(time)
        self.deltas.append(delta)

    def extend(self, times: list[float], deltas: list[float]) -> None:
        """Append a run of events in call order."""
        self.times.extend(times)
        self.deltas.extend(deltas)

    def _profile(self) -> tuple[float, float, float]:
        """Returns (peak, time_weighted_mean, final_value).

        ``np.cumsum`` is a sequential scan, so every sum is bitwise the
        one a per-event loop in time order would produce."""
        if self._cache_len == len(self.times):
            return self._cache
        if self.times:
            times = np.asarray(self.times, dtype=np.float64)
            order = np.argsort(times, kind="stable")
            times = times[order]
            values = np.cumsum(np.asarray(self.deltas, dtype=np.float64)[order])
            # Each gap between events weighs the value before it (the
            # value is 0 from t = 0 to the first event).
            gaps = values[:-1] * np.diff(times)
            weighted = float(np.cumsum(gaps)[-1]) if len(gaps) else 0.0
            last_t = float(times[-1])
            mean = weighted / last_t if last_t > 0 else 0.0
            self._cache = (max(0.0, float(values.max())), mean, float(values[-1]))
        self._cache_len = len(self.times)
        return self._cache

    @property
    def peak(self) -> float:
        return self._profile()[0]

    def mean(self) -> float:
        return self._profile()[1]

    @property
    def current(self) -> float:
        return self._profile()[2]


@dataclass
class Telemetry:
    """Bundle of counters/gauges one switch run produces."""

    input_buffer_bytes: GaugeSeries = field(default_factory=lambda: GaugeSeries("input_buffer_bytes"))
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

    def utilization(self, n_cores: int, makespan_cycles: float) -> float:
        """Fraction of core-cycles spent in handlers over the run."""
        if makespan_cycles <= 0:
            return 0.0
        return self.busy_cycles.value / (n_cores * makespan_cycles)

    def achieved_tbps(self, makespan_cycles: float, clock_ghz: float = 1.0) -> float:
        """Goodput over the run: ingress bytes / makespan, in Tbps."""
        if makespan_cycles <= 0:
            return 0.0
        seconds = makespan_cycles / (clock_ghz * 1e9)
        return self.bytes_in.value * 8.0 / seconds / 1e12
