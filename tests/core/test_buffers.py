"""Tests for aggregation buffers and the timed lock model."""

import pytest

from repro.core.buffers import BufferPool
from repro.pspin.memory import MemoryRegion
from repro.pspin.telemetry import Telemetry


def test_acquire_serializes_fifo():
    l1 = MemoryRegion("l1", 1 << 20)
    pool = BufferPool(l1)
    buf = pool.allocate(256, now=0.0)
    entry1, wait1 = buf.acquire(10.0, hold_cycles=100.0)
    entry2, wait2 = buf.acquire(20.0, hold_cycles=100.0)
    entry3, wait3 = buf.acquire(300.0, hold_cycles=100.0)
    assert (entry1, wait1) == (10.0, 0.0)
    assert (entry2, wait2) == (110.0, 90.0)   # spun for 90 cycles
    assert (entry3, wait3) == (300.0, 0.0)    # lock already free


def test_pool_accounts_l1_bytes():
    l1 = MemoryRegion("l1", 2048)
    pool = BufferPool(l1, dtype="float32")
    b1 = pool.allocate(256, now=0.0)   # 1 KiB
    assert l1.used_bytes == 1024
    b2 = pool.allocate(256, now=1.0)
    assert l1.used_bytes == 2048
    assert pool.allocate(256, now=2.0) is None   # L1 full
    pool.release(b1, now=3.0)
    assert l1.used_bytes == 1024
    pool.release(b2, now=4.0)
    assert pool.used_bytes == 0


def test_double_release_rejected():
    l1 = MemoryRegion("l1", 1 << 20)
    pool = BufferPool(l1)
    b = pool.allocate(16, now=0.0)
    pool.release(b, now=1.0)
    with pytest.raises(ValueError):
        pool.release(b, now=2.0)


def test_pool_reports_peak_and_telemetry():
    tel = Telemetry()
    l1 = MemoryRegion("l1", 1 << 20)
    pool = BufferPool(l1, telemetry=tel, dtype="float32")
    b1 = pool.allocate(256, now=0.0)
    b2 = pool.allocate(256, now=1.0)
    pool.release(b1, now=5.0)
    pool.release(b2, now=9.0)
    assert pool.peak_buffers == 2
    assert tel.working_memory_bytes.peak == 2048.0
    assert l1.used_bytes == 0


def test_buffers_zero_initialized():
    pool = BufferPool(MemoryRegion("l1", 1 << 20))
    b = pool.allocate(8, now=0.0)
    assert not b.filled
    assert b.data.sum() == 0
