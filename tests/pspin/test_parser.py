"""Tests for the switch's allreduce table: the behavioral parser that
matches a packet's allreduce id to a handler (paper Sec. 3)."""

import numpy as np

from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import HandlerContext, HandlerResult, PsPINSwitch, SwitchConfig


class EchoHandler:
    """Test handler: 10 cycles per packet, echoes the packet."""

    def __init__(self, name):
        self.name = name
        self.seen = []

    def process(self, ctx: HandlerContext) -> HandlerResult:
        self.seen.append(ctx.packet.allreduce_id)
        return HandlerResult(finish_time=ctx.start_time + 10.0, outputs=[ctx.packet])


def _pkt(allreduce_id=1, block_id=0, port=0):
    return SwitchPacket(
        allreduce_id=allreduce_id,
        block_id=block_id,
        port=port,
        payload=np.zeros(4, dtype=np.float32),
    )


def _switch(*names):
    sw = PsPINSwitch(SwitchConfig(n_clusters=1, cores_per_cluster=2))
    handlers = [EchoHandler(name) for name in names]
    for handler in handlers:
        sw.register_handler(handler)
    return sw, handlers


def test_unmatched_packet_bypasses_processing():
    """An id with no entry goes straight to the routing tables (Sec. 3
    fn. 1): egress at its arrival instant, no handler, no input buffer."""
    sw, (handler,) = _switch("flare-tree")
    sw.inject(_pkt(allreduce_id=3), at=5.0)
    sw.run()
    assert handler.seen == []
    assert [t for t, _p in sw.egress] == [5.0]
    assert sw.telemetry.handler_invocations.value == 0
    assert sw.memories.l2_packet.peak_bytes == 0


def test_allreduce_rule_matches_only_its_id():
    sw, (handler,) = _switch("flare-tree")
    sw.install_allreduce(7, "flare-tree")
    assert sw.allreduces == {7: "flare-tree"}
    sw.inject(_pkt(allreduce_id=7), at=0.0)
    sw.inject(_pkt(allreduce_id=8), at=1.0)
    sw.run()
    assert handler.seen == [7]
    # The bypassed packet leaves at its arrival, before the matched one
    # finishes its handler.
    (t8, p8), (t7, p7) = sw.egress
    assert (t8, p8.allreduce_id, p7.allreduce_id) == (1.0, 8, 7)
    assert t7 > t8


def test_two_ids_on_one_switch():
    sw, (a, b) = _switch("a", "b")
    sw.install_allreduce(1, "a")
    sw.install_allreduce(2, "b")
    for i, aid in enumerate([1, 2, 2, 1]):
        sw.inject(_pkt(allreduce_id=aid, block_id=i), at=float(i))
    sw.run()
    assert a.seen == [1, 1] and b.seen == [2, 2]
    assert sw.telemetry.handler_invocations.value == 4


def test_packet_wire_bytes_include_header():
    p = _pkt()
    assert p.wire_bytes == p.payload.nbytes + 16
    sp = SwitchPacket(
        allreduce_id=1,
        block_id=0,
        port=0,
        payload=np.zeros(4, dtype=np.float32),
        indices=np.zeros(4, dtype=np.int32),
    )
    assert sp.is_sparse
    assert sp.wire_bytes == 16 + 16 + 16
