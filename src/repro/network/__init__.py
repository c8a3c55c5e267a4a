"""SST-equivalent network simulator (paper Sec. 7.1, Fig. 15).

The paper extends SST so switches can modify in-transit packets and
evaluates host-based vs in-network allreduce on a simulated 64-node
2-level fat tree.  This package rebuilds that substrate at chunk
granularity — links with store-and-forward serialization and busy
queues, per-link traffic accounting — and generalizes it into three
pluggable layers:

* **Topology** (:mod:`repro.network.topology`,
  :mod:`repro.network.topologies`): fat tree, multi-level XGFT,
  dragonfly, 2D torus, multi-rail — a registry of wirings exposing
  equal-cost shortest paths and switch capability flags;
* **Router** (:mod:`repro.network.routing`): deterministic shortest
  path, seeded ECMP hashing, and congestion-adaptive selection over
  the live link state;
* **TreePlanner** (:mod:`repro.network.trees`): aggregation trees over
  any topology, including Canary-style dynamic re-rooting away from
  congested links.

Reliability (:mod:`repro.network.faults`): declarative per-link
loss/corruption/degradation and link/switch outages with seeded,
process-stable per-message decisions, recovered by the simulator's
host-timeout retransmission protocol.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "Link": "repro.network.links",
    "LinkFault": "repro.network.links",
    "FaultSpec": "repro.network.faults",
    "FaultSchedule": "repro.network.faults",
    "FaultInjector": "repro.network.faults",
    "UnreachableError": "repro.network.simulator",
    "Topology": "repro.network.topology",
    "FatTreeTopology": "repro.network.topology",
    "XGFTTopology": "repro.network.topologies",
    "DragonflyTopology": "repro.network.topologies",
    "TorusTopology": "repro.network.topologies",
    "MultiRailTopology": "repro.network.topologies",
    "NodeId": "repro.network.topology",
    "available_topologies": "repro.network.topology",
    "build_topology": "repro.network.topology",
    "Router": "repro.network.routing",
    "ShortestPathRouter": "repro.network.routing",
    "EcmpRouter": "repro.network.routing",
    "AdaptiveRouter": "repro.network.routing",
    "available_routers": "repro.network.routing",
    "build_router": "repro.network.routing",
    "Message": "repro.network.simulator",
    "NetworkSimulator": "repro.network.simulator",
    "TrafficStats": "repro.network.simulator",
    "AggregationTree": "repro.network.trees",
    "TreePlanner": "repro.network.trees",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
