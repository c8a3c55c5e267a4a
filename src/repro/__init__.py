"""repro — reproduction of "Flare: Flexible In-Network Allreduce" (SC '21).

A production-quality Python library rebuilding the paper's full stack
behind one front door, :class:`repro.comm.Communicator`::

    from repro import Communicator

    comm = Communicator(n_hosts=16)
    result = comm.allreduce("512KiB")                  # capability-matched
    result = comm.allreduce("512KiB", algorithm="ring")
    future = comm.iallreduce("512KiB")                 # non-blocking
    print(future.result().summary())

Every allreduce flavor is an entry in the algorithm registry
(``repro.comm.register_algorithm``) with declared capabilities —
dense/sparse, supported operators, reproducibility, in-network vs
host-based — and runs through the same plan/execute pipeline:
``comm.plan(request)`` performs tree construction, handler selection,
and message sizing once; the cached plan then executes any number of
collectives of that shape.

Layers:

* ``repro.comm`` — the unified Communicator API: algorithm registry,
  plan cache, futures.
* ``repro.pspin`` — behavioral model of the PsPIN programmable-switch
  processing unit (clusters, HPUs, memories, schedulers).
* ``repro.core`` — Flare's dense aggregation algorithms (B shared
  buffers per block, single buffer being B = 1, and the tree),
  analytical models, staggered sending, policy, and the
  network-manager control plane.
* ``repro.sparse`` — the first in-network *sparse* allreduce (hash and
  array storage, spill buffers, shard counters).
* ``repro.network`` — an SST-like chunk-level network simulator with
  pluggable topologies (fat tree, XGFT, dragonfly, torus, multi-rail),
  routing policies (shortest / seeded ECMP / congestion-adaptive),
  and aggregation-tree planning.
* ``repro.collectives`` — the host-based (ring, swing, butterfly,
  Rabenseifner, recursive doubling, SparCML) and in-network (Flare
  dense and sparse) allreduce schedules on the network simulator.
* ``repro.baselines`` — SwitchML and SHARP behavioral reference models.
* ``repro.data`` — workload generators, including synthetic ResNet-50
  gradients with bucket sparsification.
* ``repro.figures`` — one runner per paper table/figure
  (``python -m repro <figure>``; ``python -m repro bench <algorithm>``
  drives any registered algorithm).
"""

from repro.core import (
    FlareConfig,
    select_algorithm,
    evaluate_design,
    NetworkManager,
)
from repro.pspin import PsPINSwitch, SwitchConfig, CostModel
from repro.comm import (
    AlgorithmCaps,
    CollectiveRequest,
    CollectiveResult,
    Communicator,
    available_algorithms,
    register_algorithm,
)

__version__ = "1.1.0"

__all__ = [
    "Communicator",
    "CollectiveRequest",
    "CollectiveResult",
    "AlgorithmCaps",
    "register_algorithm",
    "available_algorithms",
    "FlareConfig",
    "select_algorithm",
    "evaluate_design",
    "NetworkManager",
    "PsPINSwitch",
    "SwitchConfig",
    "CostModel",
    "__version__",
]
