"""Tests for the PsPIN switch assembly: bypass, dispatch, back-pressure,
i-cache accounting, and handler-continuation plumbing."""

import numpy as np
import pytest

from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import HandlerContext, HandlerResult, PsPINSwitch, SwitchConfig


class FixedCostHandler:
    """Test handler: charges a fixed number of cycles, echoes packets."""

    def __init__(self, name="fixed", cycles=100.0, emit=False):
        self.name = name
        self.cycles = cycles
        self.emit = emit
        self.seen = []

    def process(self, ctx: HandlerContext) -> HandlerResult:
        self.seen.append((ctx.dispatch_time, ctx.packet.block_id, ctx.hpu_id))
        outputs = [ctx.packet] if self.emit else []
        return HandlerResult(finish_time=ctx.start_time + self.cycles, outputs=outputs)


def _pkt(block=0, port=0, n=256):
    return SwitchPacket(
        allreduce_id=1, block_id=block, port=port,
        payload=np.zeros(n, dtype=np.float32),
    )


def _switch(**kw):
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=2, **kw)
    return PsPINSwitch(cfg)


def test_unmatched_packets_bypass_to_egress():
    sw = _switch()
    sw.inject(_pkt(), at=0.0)
    sw.run()
    assert len(sw.egress) == 1
    assert sw.telemetry.packets_out.value == 1


def test_matched_packets_run_handler():
    sw = _switch()
    h = FixedCostHandler()
    sw.register_handler(h)
    sw.install_allreduce(1, handler="fixed")
    sw.inject(_pkt(block=0), at=0.0)
    sw.inject(_pkt(block=1), at=1.0)
    makespan = sw.run()
    assert len(h.seen) == 2
    # icache fill (512) + handler (100) from first arrival.
    assert makespan == pytest.approx(612.0)
    assert sw.telemetry.icache_fills.value == 1


def test_warm_icache_skips_fill():
    sw = _switch()
    h = FixedCostHandler()
    sw.register_handler(h)
    sw.install_allreduce(1, handler="fixed")
    sw.clusters[0].icache_load("fixed")
    sw.inject(_pkt(), at=0.0)
    makespan = sw.run()
    assert makespan == pytest.approx(100.0)
    assert sw.telemetry.icache_fills.value == 0


def test_queueing_when_all_cores_busy():
    sw = _switch()
    h = FixedCostHandler(cycles=1000.0)
    sw.register_handler(h)
    sw.install_allreduce(1, handler="fixed")
    sw.clusters[0].icache_load("fixed")
    for i in range(3):
        sw.inject(_pkt(block=i), at=float(i))
    sw.run()
    # Two cores busy until ~1000; third packet starts only after one frees.
    starts = sorted(t for t, _b, _h in h.seen)
    assert starts[2] >= 1000.0


def test_backpressure_defers_arrivals_instead_of_dropping():
    sw = _switch(drop_on_full=False)
    sw.config.cost_model.icache_fill_cycles = 0.0
    h = FixedCostHandler(cycles=10000.0)
    sw.register_handler(h)
    sw.install_allreduce(1, handler="fixed")
    # Shrink the input-buffer memory so two packets fill it.
    sw.memories.l2_packet.capacity_bytes = 2 * _pkt().wire_bytes
    for i in range(4):
        sw.inject(_pkt(block=i), at=0.0)
    sw.run()
    assert sw.telemetry.dropped_packets.value == 0
    assert sw.telemetry.deferred_arrivals.value > 0
    assert len(h.seen) == 4  # every packet eventually processed


def test_drop_on_full_drops():
    sw = _switch(drop_on_full=True)
    h = FixedCostHandler(cycles=10000.0)
    sw.register_handler(h)
    sw.install_allreduce(1, handler="fixed")
    sw.memories.l2_packet.capacity_bytes = 1 * _pkt().wire_bytes
    for i in range(3):
        sw.inject(_pkt(block=i), at=0.0)
    sw.run()
    assert sw.telemetry.dropped_packets.value == 2
    assert len(h.seen) == 1


def test_continuation_extends_handler():
    class TwoPhase:
        name = "twophase"

        def process(self, ctx):
            def cont(now):
                return HandlerResult(finish_time=now + 50.0)

            return HandlerResult(finish_time=ctx.start_time + 10.0, continuation=cont)

    sw = _switch()
    sw.config.cost_model.icache_fill_cycles = 0.0
    sw.register_handler(TwoPhase())
    sw.install_allreduce(1, handler="twophase")
    sw.inject(_pkt(), at=0.0)
    makespan = sw.run()
    assert makespan == pytest.approx(60.0)
    assert sw.clusters[0].hpus[0].busy_cycles == pytest.approx(60.0)


def test_handler_cannot_finish_before_start():
    class Bad:
        name = "bad"

        def process(self, ctx):
            return HandlerResult(finish_time=ctx.start_time - 1.0)

    sw = _switch()
    sw.register_handler(Bad())
    sw.install_allreduce(1, handler="bad")
    sw.inject(_pkt(), at=0.0)
    with pytest.raises(RuntimeError, match="finished before it started"):
        sw.run()


def test_line_rate_calibration():
    """64 ports x 100 Gbps = 800 GB/s = 800 B/cycle at 1 GHz: a 1 KiB
    packet arrives every 1.28 cycles (Sec. 3 derived constants)."""
    cfg = SwitchConfig()
    assert cfg.line_rate_bytes_per_cycle == pytest.approx(800.0)
    assert cfg.packet_interarrival_cycles(1024) == pytest.approx(1.28)
    assert cfg.n_cores == 512
