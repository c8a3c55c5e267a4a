"""Exact WFQ service order on one hand-built contended link.

One link ``a -> b`` at 1 byte/ns with no latency, so a message that
leaves ``a`` at ``t`` is delivered at ``t + nbytes``.  Three flows with
weights 1 (A), 2 (B) and 4 (C) and one default-weight flow (D) send at
fixed instants; the test pins when each message leaves the link.  Start
tag = max(vtime, the flow's finish tag); finish tag = start + nbytes /
weight; the smallest (start, arrival order) leaves first; vtime = the
start tag of the last message sent.

=====  ===  =====  =====  ======  ======================================
sent   msg  bytes  start  leaves  why
=====  ===  =====  =====  ======  ======================================
0      c0   40     0      0       idle link: the bypass; F_C = 10
40     a0   60     0      40      bypass as the link frees; F_A = 60
100    a1   100    60     100     bypass moves vtime to 60; F_A = 160
150    a2   100    160    200     waits alone; the hop arms the re-arm
200    c1   40     160    300     sent as the link frees: the link
                                  serves a2 first (priority-0 re-arm)
                                  and vtime catches C up from 10 to 160
250    b0   100    160    340     ties c1 at 160, arrived later
250    z0   0      210    440     zero bytes: the link stays free ...
260    b1   20     210    440     ... so b1 leaves at the same instant
260    a3   100    260    540     weight 1: furthest behind
440    d0   80     210    460     sent as the link frees again: z0 and
                                  b1 leave first, then d0 catches up
1000   a4   100    360    1000    idle link again: the bypass moves
                                  vtime from 260 to 360
1050   d1   50     360    1100    F_D = 290 < vtime: catches up ...
1050   c2   40     360    1150    ... and ties c2, which came later
=====  ===  =====  =====  ======  ======================================
"""

from __future__ import annotations

import pytest

from repro.network.simulator import Message, NetworkSimulator
from repro.network.topology import Topology

#: (send time, tag, flow, bytes), in send order.
SENDS = (
    (0.0, "c0", "C", 40),
    (40.0, "a0", "A", 60),
    (100.0, "a1", "A", 100),
    (150.0, "a2", "A", 100),
    (200.0, "c1", "C", 40),
    (250.0, "b0", "B", 100),
    (250.0, "z0", "B", 0),
    (260.0, "b1", "B", 20),
    (260.0, "a3", "A", 100),
    (440.0, "d0", "D", 80),
    (1000.0, "a4", "A", 100),
    (1050.0, "d1", "D", 50),
    (1050.0, "c2", "C", 40),
)
WEIGHTS = {"A": 1.0, "B": 2.0, "C": 4.0}
#: (tag, time it starts to leave ``a``), in departure order.
DEPARTURES = [
    ("c0", 0.0), ("a0", 40.0), ("a1", 100.0), ("a2", 200.0), ("c1", 300.0),
    ("b0", 340.0), ("z0", 440.0), ("b1", 440.0), ("d0", 460.0), ("a3", 540.0),
    ("a4", 1000.0), ("d1", 1100.0), ("c2", 1150.0),
]


class OneLink(Topology):
    family = "one-link"

    def __init__(self) -> None:
        super().__init__(link_gbps=8.0, link_latency_ns=0.0)   # 1 byte/ns
        self._add_duplex("a", "b")

    @property
    def hosts(self) -> list:
        return ["a", "b"]


def _run(arm_faults_at=None):
    net = NetworkSimulator(OneLink(), arbitration="wfq")
    for flow, weight in WEIGHTS.items():
        net.set_flow_weight(flow, weight)
    left = []
    for flow in ("A", "B", "C", "D"):
        net.on_deliver("b", lambda m, t: left.append((m.tag, t - m.nbytes)), flow=flow)
    for at, tag, flow, nbytes in SENDS:
        net.send(Message("a", "b", nbytes, tag=tag, flow=flow), at=at)
    if arm_faults_at is not None:
        net.sim.schedule_at(arm_faults_at, net.arm_faults)
    net.run()
    return net, left


@pytest.mark.parametrize("fast", ["1", "0"], ids=["fastpath", "per-event"])
def test_departure_order_and_times_are_exact(monkeypatch, fast):
    monkeypatch.setenv("REPRO_FASTPATH", fast)
    net, left = _run()
    assert left == DEPARTURES
    # Five wait at once from t = 260 (c1, b0, z0, b1, a3).
    assert net.queue_depth_peaks() == {("a", "b"): 5}


@pytest.mark.parametrize("at", [0.0, 150.0, 260.0, 1020.0])
def test_faults_armed_mid_run_keep_the_order(at):
    """Arming faults (none applied) mid-run sends every later hop down
    the per-event faulty path, queued hops and pending re-arms
    included; with nothing lost the departures are the same."""
    net, left = _run(arm_faults_at=at)
    assert net.faults is not None and net.fast_path is False
    assert left == DEPARTURES
