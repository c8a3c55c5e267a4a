"""Tests for telemetry gauges and counters."""

import numpy as np
import pytest

from repro.pspin.telemetry import Counter, DeltaGauge, GaugeSeries, Telemetry


def test_gauge_peak_and_mean():
    g = GaugeSeries("g")
    g.record(0.0, 10.0)
    g.record(5.0, 0.0)
    assert g.peak == 10.0
    assert g.mean(until=10.0) == pytest.approx(5.0)
    assert g.current == 0.0


def test_gauge_rejects_backwards_time():
    g = GaugeSeries("g")
    g.record(5.0, 1.0)
    with pytest.raises(ValueError):
        g.record(4.0, 2.0)


def test_delta_gauge_tolerates_out_of_order_events():
    g = DeltaGauge("wm")
    g.add(10.0, +100.0)   # allocation recorded late
    g.add(0.0, +50.0)
    g.add(5.0, -50.0)
    assert g.peak == 100.0
    assert g.current == 100.0
    # Profile: 50 for t in [0,5), 0 for [5,10) -> mean over 10 = 25.
    assert g.mean() == pytest.approx(25.0)


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


def test_utilization_and_goodput():
    t = Telemetry()
    t.busy_cycles.add(500.0)
    t.bytes_in.add(1024)
    assert t.utilization(n_cores=10, makespan_cycles=100.0) == pytest.approx(0.5)
    # 1 KiB over 1024 cycles at 1 GHz = 1 B/ns = 8 Gb/s = 0.008 Tbps.
    assert t.achieved_tbps(1024.0) == pytest.approx(0.008)
    assert t.achieved_tbps(0.0) == 0.0


def test_delta_gauge_profile_is_bitwise_the_time_ordered_loop():
    """The cumsum scan must reproduce the per-event loop exactly,
    including same-instant events, which keep their call order."""
    rng = np.random.default_rng(7)
    # Repeated instants (ties) and inexact float areas.
    times = rng.integers(0, 50, size=400) * np.pi
    deltas = rng.choice([1000.0, -1000.0, 4099.0, -97.0], size=400)
    g = DeltaGauge("wm")
    g.extend(times[:100].tolist(), deltas[:100].tolist())
    for t, d in zip(times[100:].tolist(), deltas[100:].tolist()):
        g.add(t, d)
    value = peak = weighted = last_t = 0.0
    for t, d in sorted(zip(times.tolist(), deltas.tolist()), key=lambda e: e[0]):
        weighted += value * (t - last_t)
        last_t = t
        value += d
        peak = max(peak, value)
    assert (g.peak, g.mean(), g.current) == (peak, weighted / last_t, value)


def test_gauge_bulk_record_is_bitwise_the_per_sample_loop():
    """The fast path's vectorized commit must leave the gauge exactly
    where per-sample ``record`` calls would: same peak, same integral."""
    rng = np.random.default_rng(3)
    # Repeated instants (zero-width terms) and inexact float widths.
    times = np.sort(rng.integers(0, 60, size=300)) * np.pi + 1.0
    values = rng.integers(0, 5000, size=300)
    bulk, loop = GaugeSeries("bulk"), GaugeSeries("loop")
    for g in (bulk, loop):
        g.record(0.5, 7)
    bulk.bulk_record_arrays(times, values)
    for t, v in zip(times.tolist(), values.tolist()):
        loop.record(t, v)
    assert (bulk.peak, bulk.mean(), bulk.current) == (
        loop.peak, loop.mean(), loop.current
    )
