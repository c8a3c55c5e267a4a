#!/usr/bin/env python3
"""Bitwise-reproducible in-network reduction (flexibility axis F3).

The paper's motivating scenario: "in weather and climate modeling, a
small difference in computation on the level of a rounding error could
lead to a completely different weather pattern evolution."  fp32
addition is not associative, so an allreduce whose combine order depends
on packet arrival order returns different bits run to run.

This example aggregates the same fp32 data under many different packet
arrival orders and shows:

* single-buffer aggregation (``MultiBufferHandler`` with one buffer,
  combining in arrival order): results differ
  across orders — fine for ML, unacceptable for climate restarts;
* tree aggregation (fixed combine structure keyed by ingress port):
  bitwise-identical results for every order, *without* buffering all
  packets first (the trick fixed-function switches resort to).

Run:  python examples/reproducible_climate.py
"""

import itertools

import numpy as np

from repro.core.handler_base import HandlerConfig
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.tree_buffer import TreeAggregationHandler
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch, SwitchConfig

N_MEMBERS = 6          # ensemble members reporting partial sums
VECTOR = 128


def run_once(make_handler, payloads, order):
    cfg = SwitchConfig(n_clusters=1, cores_per_cluster=8)
    cfg.cost_model.icache_fill_cycles = 0.0
    switch = PsPINSwitch(cfg)
    handler = make_handler(
        HandlerConfig(allreduce_id=1, n_children=len(payloads),
                      dtype_name="float32")
    )
    switch.register_handler(handler)
    switch.install_allreduce(1, handler.name)
    for i, member in enumerate(order):
        switch.inject(
            SwitchPacket(allreduce_id=1, block_id=0, port=member,
                         payload=payloads[member]),
            at=i * 2.0,   # near-simultaneous arrivals
        )
    switch.run()
    return switch.egress[0][1].payload.copy()


def main() -> None:
    # Mixed-magnitude fp32 data — the regime where addition order shows.
    rng = np.random.default_rng(42)
    scales = rng.choice([1e-6, 1.0, 1e6], size=(N_MEMBERS, VECTOR))
    payloads = [
        (scales[m] * rng.standard_normal(VECTOR)).astype(np.float32)
        for m in range(N_MEMBERS)
    ]

    orders = list(itertools.permutations(range(N_MEMBERS)))[:24]
    designs = (("single-buffer", lambda config: MultiBufferHandler(config, 1)),
               ("tree", TreeAggregationHandler))
    for name, make_handler in designs:
        results = [run_once(make_handler, payloads, list(o)) for o in orders]
        distinct = {r.tobytes() for r in results}
        spread = max(
            float(np.max(np.abs(a - results[0]))) for a in results
        )
        print(f"{name:14s}: {len(distinct)} distinct bit pattern(s) across "
              f"{len(orders)} arrival orders; max |delta| = {spread:.3e}")

    print()
    print("tree aggregation fixes the combine structure by ingress port, so")
    print("every run of the climate ensemble reduces identically — no")
    print("store-all-packets buffering required (paper Sec. 6.3 / Table 1 F3).")


if __name__ == "__main__":
    main()
