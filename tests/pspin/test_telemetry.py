"""Tests for telemetry gauges and counters."""

import numpy as np

from repro.pspin.telemetry import Counter, DeltaGauge


def test_delta_gauge_tolerates_out_of_order_events():
    g = DeltaGauge("wm")
    g.add(10.0, +100.0)   # allocation recorded late
    g.add(0.0, +50.0)
    g.add(5.0, -50.0)
    # Profile in time order: 50 from t = 0, 0 from t = 5, 100 from
    # t = 10; the call order alone would read 150.
    assert g.peak == 100.0


def test_delta_gauge_cache_invalidates_on_new_events():
    g = DeltaGauge("wm")
    g.add(0.0, 10.0)
    assert g.peak == 10.0
    g.add(1.0, 20.0)
    assert g.peak == 30.0


def test_counter_add():
    c = Counter()
    c.add(2)
    c.add(3.5)
    assert c.value == 5.5


def test_delta_gauge_profile_is_bitwise_the_time_ordered_loop():
    """The cumsum scan must reproduce the per-event loop exactly,
    including same-instant events, which keep their call order."""
    rng = np.random.default_rng(7)
    # Repeated instants (ties).
    times = rng.integers(0, 50, size=400) * np.pi
    deltas = rng.choice([1000.0, -1000.0, 4099.0, -97.0], size=400)
    g = DeltaGauge("wm")
    g.extend(times[:100].tolist(), deltas[:100].tolist())
    for t, d in zip(times[100:].tolist(), deltas[100:].tolist()):
        g.add(t, d)
    value = peak = 0.0
    for t, d in sorted(zip(times.tolist(), deltas.tolist()), key=lambda e: e[0]):
        value += d
        peak = max(peak, value)
    assert g.peak == peak

