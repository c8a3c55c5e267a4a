"""Sends with a NaN or +inf size or time raise ``ValueError`` at the call.

Unchecked, such a send either hung ``run()`` (a FIFO ``inf`` size or
time, a WFQ ``nan`` size), delivered at ``nan`` or ``inf`` and left the
clock and the traffic totals there, or (a ``nan`` time) quietly ran at
``now``.  Every case is checked at the call, on both arbitrations, on
the sequential and the sharded engine, for ``send`` and ``send_burst``;
nothing is queued by a rejected call.  A negative size still raises
when the sequential engine transmits the message, and a time before
``now`` still means ``now``.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.network.parallel import ShardedNetworkSimulator
from repro.network.simulator import Message
from repro.network.topology import FatTreeTopology
from repro.pspin.pdes import build_engine

BAD = [
    ("nbytes", math.nan), ("nbytes", math.inf),
    ("at", math.nan), ("at", math.inf),
]
BAD_IDS = ["nbytes-nan", "nbytes-inf", "at-nan", "at-inf"]


@pytest.fixture(
    params=[("fifo", 0), ("fifo", 2), ("wfq", 0), ("wfq", 2)],
    ids=["fifo-w0", "fifo-w2", "wfq-w0", "wfq-w2"],
)
def engine(request):
    arbitration, workers = request.param
    topo = FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no fallback
        sim, net = build_engine(
            topo, workers=workers, router="updown", arbitration=arbitration,
            coordinator_hosts=False,
        )
    assert isinstance(net, ShardedNetworkSimulator) == bool(workers)
    log = []
    for h in topo.hosts:
        net.on_deliver(h, lambda m, t: log.append((m.tag, t)))
    yield sim, net, log
    if hasattr(net, "shutdown"):
        net.shutdown()


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
    the bad one (the sharded engine would divert those one by one)."""
    sim, net, log = engine
    bad, at = _message(field, value)
    burst = [Message("h2", "h7", 512.0, "first"), bad,
             Message("h3", "h4", 512.0, "last")]
    match = "message size" if field == "nbytes" else "send time"
    with pytest.raises(ValueError, match=match):
        net.send_burst(burst, at=at)
    _still_runs(sim, net, log)


@pytest.mark.parametrize("arbitration", ["fifo", "wfq"])
def test_negative_size_still_raises_at_transmit(arbitration):
    """Sequential engine only: the sharded engine's vector workers do
    not check sizes (see ROADMAP)."""
    topo = FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    _sim, net = build_engine(topo, router="updown", arbitration=arbitration)
    net.send(Message("h0", "h5", -1.0, "neg"), at=5.0)      # accepted
    net.send(Message("h0", "h5", -math.inf, "neg"), at=6.0)
    with pytest.raises(ValueError, match="negative message size"):
        net.run()


@pytest.mark.parametrize("at", [50.0, -math.inf], ids=["past", "minus-inf"])
def test_time_before_now_means_now(engine, at):
    sim, net, log = engine
    net.run(until=100.0)
    net.send(Message("h0", "h1", 512.0, "late"), at=at)
    net.send(Message("h2", "h3", 512.0, "now"), at=100.0)
    net.run()
    arrivals = dict(log)
    assert arrivals["late"] == arrivals["now"] > 100.0
