"""Failure injection: packet loss, retransmission, and buffer pressure.

Paper Sec. 4.1: "if a packet is lost, a timeout is triggered in the
host, that retransmits the packet.  To manage retransmissions, Flare
can use a bitmap (with one bit per port) rather than a counter."

The loss / duplicate / storm scenarios run through the **public
Communicator API** over a fault-injected fabric, so they guard the
path real users take (schedule dedup, host timeout + retransmission,
per-flow accounting) end to end; results must stay bitwise exact.  The
switch-memory scenarios at the bottom still drive the PsPIN switch
directly — buffer capacity is internal switch state the network fault
API deliberately does not reach.
"""

import numpy as np
import pytest

from repro.comm import Fabric
from repro.core.handler_base import HandlerConfig
from repro.core.multi_buffer import MultiBufferHandler
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch, SwitchConfig

N_HOSTS = 8


def _fabric() -> Fabric:
    return Fabric(n_hosts=N_HOSTS, hosts_per_leaf=4, n_spines=2)


#: Each algorithm's chunk-size knob: 256 B chunks -> enough messages.
SMALL_CHUNKS = {"ring": {"sub_chunk_bytes": 256}, "flare_dense": {"chunk_bytes": 256}}


def _payloads(seed=0, n=512):
    rng = np.random.default_rng(seed)
    data = rng.integers(-50, 50, size=(N_HOSTS, n)).astype(np.int32)
    return data, data.sum(axis=0, dtype=np.int64).astype(np.int32)


# ----------------------------------------------------------------------
# Host-path scenarios through the public Communicator API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["ring", "flare_dense"])
def test_lost_then_retransmitted_chunks(algorithm):
    """Chunks lost on a degraded host uplink are recovered by the host
    timeout + retransmission protocol; the reduction completes exactly
    once, exactly right."""
    data, golden = _payloads(seed=1)
    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link="h1-l0", kind="lossy", loss_rate=0.4, seed=3)
    # 256 B chunks -> enough messages cross the degraded uplink that the
    # seeded 40% loss provably bites.
    result = comm.iallreduce(data, algorithm=algorithm,
                             **SMALL_CHUNKS[algorithm]).result()
    np.testing.assert_array_equal(result.extra["output"], golden)
    assert fabric.net.traffic.drops > 0
    assert fabric.net.traffic.retransmits == fabric.net.traffic.drops


@pytest.mark.parametrize("algorithm", ["ring", "flare_dense"])
def test_spurious_duplicates_not_double_counted(algorithm):
    """Duplicated deliveries (retransmission although the original
    arrived) must not be double-reduced — the Sec. 4.1 bitmap property,
    held at every schedule's dedup layer."""
    data, golden = _payloads(seed=2)
    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link="*", kind="lossy", duplicate_rate=0.15, seed=5)
    result = comm.iallreduce(data, algorithm=algorithm,
                             **SMALL_CHUNKS[algorithm]).result()
    np.testing.assert_array_equal(result.extra["output"], golden)
    assert fabric.net.traffic.duplicates > 0
    assert fabric.net.traffic.drops == 0


def test_retransmission_storm_stays_exact():
    """Heavy simultaneous loss *and* duplication on every link — a
    retransmission storm — still reduces every element exactly once."""
    data, golden = _payloads(seed=3)
    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link="*", kind="lossy", loss_rate=0.3,
                  duplicate_rate=0.3, seed=7)
    result = comm.iallreduce(data, algorithm="ring").result()
    np.testing.assert_array_equal(result.extra["output"], golden)
    stats = fabric.net.traffic
    assert stats.drops > 10 and stats.duplicates > 10
    assert result.extra["retransmits"] > 0


def test_degraded_link_slows_but_never_corrupts():
    data, golden = _payloads(seed=4)
    clean = _fabric().communicator(name="t")
    t_clean = clean.iallreduce(data, algorithm="ring").result().time_ns
    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link="h0-l0", kind="slow", slow_factor=8.0)
    result = comm.iallreduce(data, algorithm="ring").result()
    np.testing.assert_array_equal(result.extra["output"], golden)
    assert result.time_ns > t_clean


# ----------------------------------------------------------------------
# Switch-internal buffer pressure (not reachable via the network API)
# ----------------------------------------------------------------------
def _switch(**kw):
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=4, **kw)
    cfg.cost_model.icache_fill_cycles = 0.0
    return PsPINSwitch(cfg)


def test_input_buffer_overload_with_backpressure_stays_exact():
    """Shrink the L2 packet memory so arrivals defer; the aggregation
    result must still be exact once everything drains."""
    sw = _switch(drop_on_full=False)
    sw.memories.l2_packet.capacity_bytes = 3 * (1024 + 16)
    handler = MultiBufferHandler(
        HandlerConfig(allreduce_id=1, n_children=8, dtype_name="int32"),
        1,
    )
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    payloads = [np.full(256, p + 1, dtype=np.int32) for p in range(8)]
    for p, payload in enumerate(payloads):
        sw.inject(
            SwitchPacket(allreduce_id=1, block_id=0, port=p, payload=payload),
            at=float(p),
        )
    sw.run()
    assert sw.telemetry.deferred_arrivals.value > 0
    np.testing.assert_array_equal(
        sw.egress[0][1].payload, np.sum(np.stack(payloads), axis=0)
    )


def test_drop_mode_loses_packets_until_retransmitted():
    """With drop-on-full, a dropped child packet stalls the block until
    the host retransmits — then the reduction completes correctly."""
    sw = _switch(drop_on_full=True)
    sw.memories.l2_packet.capacity_bytes = 1 * (1024 + 16)
    handler = MultiBufferHandler(
        HandlerConfig(allreduce_id=1, n_children=2, dtype_name="int32"),
        1,
    )
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    a = np.full(256, 5, dtype=np.int32)
    b = np.full(256, 9, dtype=np.int32)
    sw.inject(SwitchPacket(allreduce_id=1, block_id=0, port=0, payload=a), at=0.0)
    sw.inject(SwitchPacket(allreduce_id=1, block_id=0, port=1, payload=b), at=0.0)
    sw.run()
    assert sw.telemetry.dropped_packets.value == 1
    assert handler.blocks_completed == 0          # stalled
    # Host timeout fires, retransmission arrives when space exists.
    sw.inject(
        SwitchPacket(allreduce_id=1, block_id=0, port=1, payload=b,
                     is_retransmission=True),
        at=sw.sim.now + 10_000.0,
    )
    sw.run()
    assert handler.blocks_completed == 1
    np.testing.assert_array_equal(sw.egress[0][1].payload, a + b)
