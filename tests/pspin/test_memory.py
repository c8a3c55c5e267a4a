"""Tests for memory regions and the PsPIN memory map."""

import pytest

from repro.pspin.memory import MemoryAccounting, MemoryRegion


def test_allocate_and_release():
    r = MemoryRegion("r", 100)
    assert r.allocate(60, now=0.0)
    assert r.used_bytes == 60
    assert r.free_bytes == 40
    r.release(10, now=1.0)
    assert r.used_bytes == 50


def test_allocation_failure_counts_and_preserves_state():
    r = MemoryRegion("r", 100)
    assert r.allocate(80, now=0.0)
    assert not r.allocate(30, now=1.0)
    assert r.alloc_failures == 1
    assert r.used_bytes == 80


def test_over_release_raises():
    r = MemoryRegion("r", 100)
    r.allocate(10, now=0.0)
    with pytest.raises(ValueError):
        r.release(20, now=1.0)


def test_negative_allocation_rejected():
    r = MemoryRegion("r", 100)
    with pytest.raises(ValueError):
        r.allocate(-1, now=0.0)


def test_peak_tracking():
    r = MemoryRegion("r", 100)
    r.allocate(70, now=0.0)
    r.release(50, now=1.0)
    r.allocate(20, now=2.0)
    assert r.peak_bytes == 70


def test_time_weighted_average():
    r = MemoryRegion("r", 100)
    r.allocate(100, now=0.0)
    r.release(100, now=5.0)
    # 100 B for 5 units, 0 B for 5 units -> mean 50.
    assert r.average_bytes(now=10.0) == pytest.approx(50.0)


def test_pspin_memory_map_capacities():
    """Paper Sec. 3: 4 MiB L2 packet, 4 MiB handler, 32 KiB program,
    1 MiB per-cluster L1."""
    mm = MemoryAccounting()
    assert mm.l2_packet.capacity_bytes == 4 * 1024 * 1024
    assert mm.l2_handler.capacity_bytes == 4 * 1024 * 1024
    assert mm.l2_program.capacity_bytes == 32 * 1024
    assert MemoryAccounting.l1_tcdm().capacity_bytes == 1024 * 1024


def test_replayed_profile_is_bitwise_the_call_order_accounting():
    """The fast path loads a call-order (time, delta) log with one scan;
    it must leave the region exactly as allocate/release calls would,
    including releases booked in the region's future."""
    import numpy as np

    from repro.pspin.train import replay_region_profile

    rng = np.random.default_rng(0)
    times, deltas = [], []
    for t in np.sort(rng.random(300) * 1e4).tolist():
        times += [t, t + float(rng.random()) * 300.0]
        deltas += [1000, -1000]
    direct, replayed = MemoryRegion("a", 1 << 30), MemoryRegion("b", 1 << 30)
    for region in (direct, replayed):
        region.allocate(512, now=0.5)
    for t, d in zip(times, deltas):
        if d > 0:
            direct.allocate(d, now=t)
        else:
            direct.release(-d, now=t)
    replay_region_profile(replayed, times, deltas)
    state = lambda r: (r.used_bytes, r.peak_bytes, r._weighted_sum, r._last_time)  # noqa: E731
    assert state(replayed) == state(direct)
