"""Engine construction: the ``(sim, net)`` pair every driver runs on.

``build_engine`` builds the sequential :class:`~repro.pspin.engine.Simulator`
and a :class:`~repro.network.simulator.NetworkSimulator` sharing it.
"""

from __future__ import annotations

from repro.pspin.engine import Simulator


def build_engine(
    topology,
    workers: int = 0,
    router=None,
    routing_seed: int = 0,
    arbitration: str = "wfq",
    coordinator_hosts: bool = True,
):
    """Build a ``(sim, net)`` engine pair over ``topology``.

    ``workers`` and ``coordinator_hosts`` are accepted and ignored: they
    configured a sharded engine that no longer exists, and the ledger's
    storm-8k reference rep still passes them.  They go when that rep
    does.
    """
    from repro.network.simulator import NetworkSimulator

    sim = Simulator()
    net = NetworkSimulator(
        topology, router=router, routing_seed=routing_seed,
        sim=sim, arbitration=arbitration,
    )
    return sim, net
