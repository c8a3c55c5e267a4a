"""Concurrent allreduces on one switch (paper Sec. 4: "Each switch can
participate simultaneously in different allreduces ... so that only
packets belonging to the same allreduce are aggregated together")."""

import numpy as np

from repro.core.handler_base import HandlerConfig
from repro.core.manager import NetworkManager
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.tree_buffer import TreeAggregationHandler
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch, SwitchConfig


def test_two_allreduces_interleaved_do_not_mix():
    cfg = SwitchConfig(n_clusters=2, cores_per_cluster=4)
    cfg.cost_model.icache_fill_cycles = 0.0
    sw = PsPINSwitch(cfg)

    h1 = MultiBufferHandler(
        HandlerConfig(allreduce_id=1, n_children=3, dtype_name="int32"),
        1,
    )
    h2 = TreeAggregationHandler(
        HandlerConfig(allreduce_id=2, n_children=2, dtype_name="int32")
    )
    # Distinct handler images (names differ), distinct allreduce ids.
    sw.register_handler(h1)
    sw.register_handler(h2)
    sw.install_allreduce(1, h1.name)
    sw.install_allreduce(2, h2.name)

    a = [np.full(8, 10 * (p + 1), dtype=np.int32) for p in range(3)]
    b = [np.full(8, p + 1, dtype=np.int32) for p in range(2)]
    # Interleave arrivals of the two operations tightly.
    t = 0.0
    for p in range(3):
        sw.inject(SwitchPacket(allreduce_id=1, block_id=0, port=p, payload=a[p]), at=t)
        t += 3.0
        if p < 2:
            sw.inject(
                SwitchPacket(allreduce_id=2, block_id=0, port=p, payload=b[p]), at=t
            )
            t += 3.0
    sw.run()

    outs = {pkt.allreduce_id: pkt.payload for _t, pkt in sw.egress}
    np.testing.assert_array_equal(outs[1], np.full(8, 60, dtype=np.int32))
    np.testing.assert_array_equal(outs[2], np.full(8, 3, dtype=np.int32))


def test_manager_installs_many_then_saturates():
    mgr = NetworkManager(max_allreduces_per_switch=3)
    for _ in range(3):
        mgr.admit((0,))
    assert mgr.utilization()["admitted"] == 3
    import pytest

    with pytest.raises(RuntimeError):
        mgr.admit((0,))


def test_same_block_ids_across_allreduces_are_distinct_keys():
    """Block 0 of allreduce 1 and block 0 of allreduce 2 must never
    share aggregation state (the key is (allreduce, block))."""
    p1 = SwitchPacket(allreduce_id=1, block_id=0, port=0,
                      payload=np.zeros(1, dtype=np.int32))
    p2 = SwitchPacket(allreduce_id=2, block_id=0, port=0,
                      payload=np.zeros(1, dtype=np.int32))
    assert p1.key() != p2.key()
