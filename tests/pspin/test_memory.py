"""Tests for memory regions and the PsPIN memory map."""

import pytest

from repro.pspin.memory import MemoryAccounting, MemoryRegion


def test_allocate_and_release():
    r = MemoryRegion("r", 100)
    assert r.allocate(60)
    assert r.used_bytes == 60
    assert r.free_bytes == 40
    r.release(10, now=1.0)
    assert r.used_bytes == 50


def test_allocation_failure_counts_and_preserves_state():
    r = MemoryRegion("r", 100)
    assert r.allocate(80)
    assert not r.allocate(30)
    assert r.alloc_failures == 1
    assert r.used_bytes == 80


def test_over_release_raises():
    r = MemoryRegion("r", 100)
    r.allocate(10)
    with pytest.raises(ValueError):
        r.release(20, now=1.0)


def test_negative_allocation_rejected():
    r = MemoryRegion("r", 100)
    with pytest.raises(ValueError):
        r.allocate(-1)


def test_peak_tracking():
    r = MemoryRegion("r", 100)
    r.allocate(70)
    r.release(50, now=1.0)
    r.allocate(20)
    assert r.peak_bytes == 70


def test_pspin_memory_map_capacities():
    """Paper Sec. 3: 4 MiB L2 packet, 4 MiB handler, 32 KiB program,
    1 MiB per-cluster L1."""
    mm = MemoryAccounting()
    assert mm.l2_packet.capacity_bytes == 4 * 1024 * 1024
    assert mm.l2_handler.capacity_bytes == 4 * 1024 * 1024
    assert mm.l2_program.capacity_bytes == 32 * 1024
    assert MemoryAccounting.l1_tcdm().capacity_bytes == 1024 * 1024


def test_replayed_profile_is_bitwise_the_call_order_accounting():
    """The fast path loads a call-order delta log with one scan; it
    must leave used/peak bytes exactly as allocate/release calls would."""
    import numpy as np

    from repro.pspin.train import replay_region_profile

    rng = np.random.default_rng(0)
    live, deltas = [], []
    for _ in range(600):
        if live and rng.random() < 0.5:
            deltas.append(-live.pop(int(rng.integers(len(live)))))
        else:
            live.append(int(rng.integers(1, 5000)))
            deltas.append(live[-1])
    direct, replayed = MemoryRegion("a", 1 << 30), MemoryRegion("b", 1 << 30)
    for region in (direct, replayed):
        region.allocate(512)
    for d in deltas:
        if d > 0:
            direct.allocate(d)
        else:
            direct.release(-d, now=0.0)
    replay_region_profile(replayed, deltas)
    assert (replayed.used_bytes, replayed.peak_bytes) == (
        direct.used_bytes, direct.peak_bytes
    )
    assert direct.peak_bytes > 512 + max(deltas)
