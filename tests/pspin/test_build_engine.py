"""``build_engine`` keeps the call signature the ledger harness uses.

The storm-8k reference rep calls ``build_engine(topo, workers=1,
router="updown", arbitration="fifo", coordinator_hosts=False)``.  Both
keywords are accepted and ignored: the call must warn nothing, return
the plain sequential pair and reproduce the default call's storm
exactly.
"""

import warnings

import numpy as np
import pytest

from repro.network import FatTreeTopology, Message
from repro.network.simulator import NetworkSimulator
from repro.pspin.engine import Simulator
from repro.pspin.pdes import build_engine


def _storm(**engine_kw):
    """A 512-host random storm on the ledger's smoke shape; returns the
    arrival log ``(message, host, time)`` and the makespan."""
    topo = FatTreeTopology(n_hosts=512, hosts_per_leaf=32, n_spines=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim, net = build_engine(
            topo, router="updown", arbitration="fifo", **engine_kw
        )
    assert type(sim) is Simulator and type(net) is NetworkSimulator
    assert net.sim is sim
    log = []
    hosts = topo.hosts
    for h in hosts:
        net.on_deliver(h, lambda m, t, h=h: log.append((m.tag, h, t)))
    rng = np.random.default_rng(1)
    n = len(hosts)
    src = np.repeat(np.arange(n), 2)
    dst = rng.integers(0, n - 1, size=src.size)
    dst += dst >= src
    for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        net.send(Message(hosts[s], hosts[d], 4096.0, i), at=3.0 * (i % 97))
    sim.run()
    assert net.windowed_hops > 0
    return log, sim.now


def test_ledger_call_is_the_sequential_engine():
    want = _storm(workers=0)
    got = _storm(workers=1, coordinator_hosts=False)
    assert len(got[0]) == 1024
    assert got == want


def test_fabric_has_no_workers_option():
    from repro.comm import Fabric

    with pytest.raises(TypeError, match="workers"):
        Fabric(n_hosts=8, workers=2)
