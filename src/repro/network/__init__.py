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

from repro.network.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.network.links import Link, LinkFault
from repro.network.topology import (
    FatTreeTopology,
    NodeId,
    Topology,
    available_topologies,
    build_topology,
)
from repro.network import topologies as _topologies  # noqa: F401  (registers families)
from repro.network.topologies import (
    DragonflyTopology,
    MultiRailTopology,
    TorusTopology,
    XGFTTopology,
)
from repro.network.routing import (
    AdaptiveRouter,
    EcmpRouter,
    Router,
    ShortestPathRouter,
    available_routers,
    build_router,
)
from repro.network.simulator import (
    Message,
    NetworkSimulator,
    TrafficStats,
    UnreachableError,
)
from repro.network.trees import AggregationTree, TreePlanner

__all__ = [
    "Link",
    "LinkFault",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "UnreachableError",
    "Topology",
    "FatTreeTopology",
    "XGFTTopology",
    "DragonflyTopology",
    "TorusTopology",
    "MultiRailTopology",
    "NodeId",
    "available_topologies",
    "build_topology",
    "Router",
    "ShortestPathRouter",
    "EcmpRouter",
    "AdaptiveRouter",
    "available_routers",
    "build_router",
    "Message",
    "NetworkSimulator",
    "TrafficStats",
    "AggregationTree",
    "TreePlanner",
]
