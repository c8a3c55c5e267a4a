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

Each package keeps its public names but imports a name's module on the
name's first access (DESIGN.md, "Import layering"): ``import repro``
loads no other module, and set-up cost scales with what a caller uses.
"""

import sys

__version__ = "1.1.0"


def _lazy_exports(package: str, table: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps each public name to the module defining it; a name's
    module is imported on the name's first access and the value is then
    cached as a package global, so later reads skip ``__getattr__``.  A
    name whose module is ``package.name`` is that submodule itself.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        __import__(table[name])        # an import statement's path: -X importtime sees it
        module = sys.modules[table[name]]
        value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__


#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "Communicator": "repro.comm.communicator",
    "CollectiveRequest": "repro.comm.request",
    "CollectiveResult": "repro.collectives.result",
    "AlgorithmCaps": "repro.comm.registry",
    "register_algorithm": "repro.comm.registry",
    "available_algorithms": "repro.comm.registry",
    "FlareConfig": "repro.core.config",
    "select_algorithm": "repro.core.policy",
    "evaluate_design": "repro.core.models",
    "NetworkManager": "repro.core.manager",
    "PsPINSwitch": "repro.pspin.switch",
    "SwitchConfig": "repro.pspin.switch",
    "CostModel": "repro.pspin.costs",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS, "__version__"]
