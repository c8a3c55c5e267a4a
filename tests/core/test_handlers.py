"""Tests for the dense aggregation handlers (B shared buffers, single
buffer being B = 1, and the tree): numerics, costs,
retransmission handling, multicast, and custom operators."""

import numpy as np
import pytest

from repro.core.handler_base import HandlerConfig, PARENT_PORT
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.ops import MAX, MIN, PROD
from repro.core.tree_buffer import TreeAggregationHandler
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch, SwitchConfig


def _run(handler_cls, n_children=4, dtype="int32", op=None, multicast=None,
         payloads=None, duplicate_port=None, **handler_kw):
    """Drive one block through a handler on a small switch."""
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=8)
    cfg.cost_model.icache_fill_cycles = 0.0
    sw = PsPINSwitch(cfg)
    hconf = HandlerConfig(
        allreduce_id=1,
        n_children=n_children,
        dtype_name=dtype,
        multicast_ports=multicast,
        op=op if op is not None else "sum",
    )
    handler = handler_cls(hconf, **handler_kw)
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    if payloads is None:
        payloads = [np.arange(8, dtype=dtype) + h for h in range(n_children)]
    t = 0.0
    for port, payload in enumerate(payloads):
        sw.inject(
            SwitchPacket(allreduce_id=1, block_id=0, port=port, payload=payload),
            at=t,
        )
        t += 10.0
    if duplicate_port is not None:
        sw.inject(
            SwitchPacket(
                allreduce_id=1, block_id=0, port=duplicate_port,
                payload=payloads[duplicate_port], is_retransmission=True,
            ),
            at=t,
        )
    sw.run()
    return sw, handler, payloads


def _golden_sum(payloads):
    return np.sum(np.stack(payloads), axis=0)


@pytest.mark.parametrize(
    "factory",
    [
        lambda c: MultiBufferHandler(c, 1),
        lambda c: MultiBufferHandler(c, 2),
        lambda c: MultiBufferHandler(c, 4),
        lambda c: TreeAggregationHandler(c),
    ],
    ids=["single", "multi2", "multi4", "tree"],
)
def test_integer_sum_exact(factory):
    def cls(conf, **kw):
        return factory(conf)

    sw, handler, payloads = _run(cls)
    assert len(sw.egress) == 1
    _t, out = sw.egress[0]
    assert out.port == PARENT_PORT
    np.testing.assert_array_equal(out.payload, _golden_sum(payloads))
    assert handler.blocks_completed == 1
    assert handler.in_flight_blocks == 0
    assert handler.working_memory_bytes() == 0  # all buffers released


def test_retransmission_not_aggregated_twice():
    for factory in (
        lambda c: MultiBufferHandler(c, 1),
        lambda c: MultiBufferHandler(c, 2),
        lambda c: TreeAggregationHandler(c),
    ):
        def cls(conf, **kw):
            return factory(conf)

        # Duplicate arrives before the block completes (port 0 again,
        # injected after the last child) -> bitmap already set.
        sw, handler, payloads = _run(cls, n_children=4, duplicate_port=None)
        np.testing.assert_array_equal(sw.egress[0][1].payload, _golden_sum(payloads))

    # Explicit duplicate mid-stream for single buffer.
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=8)
    cfg.cost_model.icache_fill_cycles = 0.0
    sw = PsPINSwitch(cfg)
    hconf = HandlerConfig(allreduce_id=1, n_children=2, dtype_name="int32")
    handler = MultiBufferHandler(hconf, 1)
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    a = np.full(4, 5, dtype="int32")
    b = np.full(4, 7, dtype="int32")
    sw.inject(SwitchPacket(allreduce_id=1, block_id=0, port=0, payload=a), at=0.0)
    sw.inject(SwitchPacket(allreduce_id=1, block_id=0, port=0, payload=a), at=1.0)
    sw.inject(SwitchPacket(allreduce_id=1, block_id=0, port=1, payload=b), at=2.0)
    sw.run()
    np.testing.assert_array_equal(sw.egress[0][1].payload, a + b)
    assert handler.duplicates_dropped == 1


def test_root_multicasts_to_children():
    sw, handler, payloads = _run(
        lambda c: MultiBufferHandler(c, 1), multicast=[0, 1, 2, 3]
    )
    assert len(sw.egress) == 4
    golden = _golden_sum(payloads)
    ports = sorted(p.port for _t, p in sw.egress)
    assert ports == [0, 1, 2, 3]
    for _t, p in sw.egress:
        np.testing.assert_array_equal(p.payload, golden)


@pytest.mark.parametrize("op,reduce_fn", [
    (MIN, np.minimum.reduce),
    (MAX, np.maximum.reduce),
    (PROD, lambda a: np.multiply.reduce(a)),
])
def test_custom_operators(op, reduce_fn):
    payloads = [np.array([1, 2, 3, 4], dtype="int32") * (h + 1) for h in range(3)]
    sw, handler, _ = _run(
        lambda c: MultiBufferHandler(c, 1), n_children=3, payloads=payloads, op=op
    )
    np.testing.assert_array_equal(sw.egress[0][1].payload, reduce_fn(np.stack(payloads)))


def test_tree_handler_odd_child_count():
    """P=5 exercises promotion nodes (odd subtree sizes)."""
    sw, handler, payloads = _run(lambda c: TreeAggregationHandler(c), n_children=5)
    np.testing.assert_array_equal(sw.egress[0][1].payload, _golden_sum(payloads))


def test_tree_handler_single_child():
    sw, handler, payloads = _run(lambda c: TreeAggregationHandler(c), n_children=1)
    np.testing.assert_array_equal(sw.egress[0][1].payload, payloads[0])


def test_single_buffer_contention_costs_cycles():
    """Packets arriving back-to-back serialize on the buffer: the total
    contention wait grows with fan-in."""
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=8)
    cfg.cost_model.icache_fill_cycles = 0.0
    sw = PsPINSwitch(cfg)
    hconf = HandlerConfig(allreduce_id=1, n_children=8, dtype_name="float32")
    handler = MultiBufferHandler(hconf, 1)
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    for port in range(8):
        sw.inject(
            SwitchPacket(
                allreduce_id=1, block_id=0, port=port,
                payload=np.ones(256, dtype=np.float32),
            ),
            at=float(port),  # ~back-to-back vs L=1024
        )
    sw.run()
    assert sw.telemetry.contention_wait_cycles.value > 1024.0


def test_tree_handler_never_waits():
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=8)
    cfg.cost_model.icache_fill_cycles = 0.0
    sw = PsPINSwitch(cfg)
    hconf = HandlerConfig(allreduce_id=1, n_children=8, dtype_name="float32")
    handler = TreeAggregationHandler(hconf)
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    for port in range(8):
        sw.inject(
            SwitchPacket(
                allreduce_id=1, block_id=0, port=port,
                payload=np.ones(256, dtype=np.float32),
            ),
            at=float(port),
        )
    sw.run()
    assert sw.telemetry.contention_wait_cycles.value == 0.0
    np.testing.assert_array_equal(
        sw.egress[0][1].payload, np.full(256, 8.0, dtype=np.float32)
    )


def test_multi_buffer_requires_positive_B():
    hconf = HandlerConfig(allreduce_id=1, n_children=2)
    with pytest.raises(ValueError):
        MultiBufferHandler(hconf, 0)
