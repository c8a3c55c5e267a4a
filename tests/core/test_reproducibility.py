"""Reproducibility (F3) tests.

The paper's claim: tree aggregation yields bitwise-identical fp32 sums
across runs regardless of packet arrival order, because the combine
structure is fixed by ingress port; single-buffer aggregation combines
in arrival order and is therefore *not* bitwise stable.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.handler_base import HandlerConfig
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.tree_buffer import TreeAggregationHandler
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch, SwitchConfig


def _single(config):
    return MultiBufferHandler(config, 1)


def _run_order(handler_cls, payloads, order, arrival_gap=3.0):
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=8)
    cfg.cost_model.icache_fill_cycles = 0.0
    sw = PsPINSwitch(cfg)
    hconf = HandlerConfig(
        allreduce_id=1, n_children=len(payloads), dtype_name="float32"
    )
    handler = handler_cls(hconf)
    sw.register_handler(handler)
    sw.install_allreduce(1, handler.name)
    for i, port in enumerate(order):
        sw.inject(
            SwitchPacket(
                allreduce_id=1, block_id=0, port=port, payload=payloads[port]
            ),
            at=i * arrival_gap,
        )
    sw.run()
    assert len(sw.egress) == 1
    return sw.egress[0][1].payload.copy()


def _fp32_payloads(n_children=4, n=64, seed=7):
    """Values chosen so fp32 addition order visibly matters: mix huge
    and tiny magnitudes."""
    rng = np.random.default_rng(seed)
    mags = rng.choice([1e-8, 1.0, 1e8], size=(n_children, n))
    signs = rng.choice([-1.0, 1.0], size=(n_children, n))
    return [(mags[i] * signs[i] * rng.random(n)).astype(np.float32) for i in range(n_children)]


def test_tree_is_bitwise_reproducible_across_arrival_orders():
    payloads = _fp32_payloads()
    results = []
    for order in itertools.permutations(range(4)):
        results.append(_run_order(TreeAggregationHandler, payloads, list(order)))
    for r in results[1:]:
        assert np.array_equal(r.view(np.uint32), results[0].view(np.uint32)), (
            "tree aggregation must be bitwise identical for every arrival order"
        )


def test_single_buffer_is_order_dependent():
    """Demonstrates the problem tree aggregation solves: at least one
    pair of arrival orders yields bitwise-different fp32 sums."""
    payloads = _fp32_payloads()
    baseline = _run_order(_single, payloads, [0, 1, 2, 3])
    differs = False
    for order in itertools.permutations(range(4)):
        r = _run_order(_single, payloads, list(order))
        if not np.array_equal(r.view(np.uint32), baseline.view(np.uint32)):
            differs = True
            break
    assert differs, "expected fp32 arrival-order sensitivity in single-buffer mode"


def test_tree_and_single_agree_within_float_tolerance():
    payloads = _fp32_payloads()
    t = _run_order(TreeAggregationHandler, payloads, [2, 0, 3, 1])
    s = _run_order(_single, payloads, [2, 0, 3, 1])
    np.testing.assert_allclose(t, s, rtol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    perm=st.permutations(list(range(5))),
    gap=st.floats(min_value=0.5, max_value=2000.0),
)
def test_property_tree_reproducible_for_any_order_and_pacing(perm, gap):
    payloads = _fp32_payloads(n_children=5, seed=11)
    ref = _run_order(TreeAggregationHandler, payloads, list(range(5)), arrival_gap=100.0)
    got = _run_order(TreeAggregationHandler, payloads, list(perm), arrival_gap=gap)
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
