"""Sends with a negative, fractional, NaN or +inf size, or a NaN or
+inf time, raise ``ValueError`` at the call.

Unchecked, such a send either hung ``run()`` (a FIFO ``inf`` size or
time, a WFQ ``nan`` size), delivered at ``nan`` or ``inf`` and left the
clock and the traffic totals there, (a ``nan`` time) quietly ran at
``now``, or (a negative size) raised only when the message was
transmitted, mid-run; a link carries whole bytes, so a fractional size
is refused too.  Every case is checked at the call, on both
arbitrations, for ``send`` and ``send_burst``; nothing is queued by a
rejected call.  A time before ``now`` still means ``now``.
"""

from __future__ import annotations

import math

import pytest

from repro.network.simulator import Message
from repro.network.topology import FatTreeTopology
from repro.pspin.pdes import build_engine

BAD = [
    ("nbytes", math.nan), ("nbytes", math.inf),
    ("nbytes", -1.0), ("nbytes", -math.inf), ("nbytes", 1000.5),
    ("at", math.nan), ("at", math.inf),
]
BAD_IDS = [
    "nbytes-nan", "nbytes-inf", "nbytes-minus-one", "nbytes-minus-inf",
    "nbytes-fractional", "at-nan", "at-inf",
]


@pytest.fixture(params=["fifo", "wfq"], ids=["fifo-w0", "wfq-w0"])
def engine(request):
    topo = FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    sim, net = build_engine(topo, router="updown", arbitration=request.param)
    log = []
    for h in topo.hosts:
        net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
    return sim, net, log


def _message(field: str, value: float, tag="bad") -> tuple[Message, float]:
    nbytes = value if field == "nbytes" else 512.0
    at = value if field == "at" else 10.0
    return Message("h0", "h5", nbytes, tag), at


def _still_runs(sim, net, log) -> None:
    """Nothing of the rejected call is queued, and the engine runs a
    good message to a finite time."""
    assert sim.pending == 0
    net.send(Message("h1", "h6", 512.0, "good"), at=20.0)
    net.run()
    assert [tag for tag, _ in log] == ["good"]
    assert math.isfinite(sim.now) and math.isfinite(net.traffic.bytes_hops)


@pytest.mark.parametrize("field,value", BAD, ids=BAD_IDS)
def test_send_rejects_nan_and_inf(engine, field, value):
    sim, net, log = engine
    msg, at = _message(field, value)
    match = "message size" if field == "nbytes" else "send time"
    with pytest.raises(ValueError, match=match):
        net.send(msg, at=at)
    _still_runs(sim, net, log)


@pytest.mark.parametrize("field,value", BAD, ids=BAD_IDS)
def test_send_burst_rejects_nan_and_inf(engine, field, value):
    """The whole burst is refused, including the good messages ahead of
    the bad one."""
    sim, net, log = engine
    bad, at = _message(field, value)
    burst = [Message("h2", "h7", 512.0, "first"), bad,
             Message("h3", "h4", 512.0, "last")]
    match = "message size" if field == "nbytes" else "send time"
    with pytest.raises(ValueError, match=match):
        net.send_burst(burst, at=at)
    _still_runs(sim, net, log)


@pytest.mark.parametrize("at", [50.0, -math.inf], ids=["past", "minus-inf"])
def test_time_before_now_means_now(engine, at):
    sim, net, log = engine
    net.run(until=100.0)
    net.send(Message("h0", "h1", 512.0, "late"), at=at)
    net.send(Message("h2", "h3", 512.0, "now"), at=100.0)
    net.run()
    arrivals = dict(log)
    assert arrivals["late"] == arrivals["now"] > 100.0
