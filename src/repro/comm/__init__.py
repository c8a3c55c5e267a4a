"""repro.comm — the unified communicator API.

The library's primary entry point: an algorithm registry with declared
capabilities, plan/execute separation with an LRU plan cache, and the
:class:`Communicator` facade with blocking (``allreduce``) and
non-blocking (``iallreduce``) collectives.

Each public name loads its module on first access, and the registry
registers the built-in algorithms before its first read::

    from repro.comm import Communicator

    comm = Communicator(n_hosts=16)
    print(comm.allreduce("256KiB").summary())
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "AdmissionError": "repro.core.manager",
    "Communicator": "repro.comm.communicator",
    "CollectiveError": "repro.comm.future",
    "CollectiveRequest": "repro.comm.request",
    "CollectiveResult": "repro.collectives.result",
    "CollectivePlan": "repro.comm.plan",
    "CollectiveFuture": "repro.comm.future",
    "Fabric": "repro.comm.fabric",
    "FabricError": "repro.comm.fabric",
    "TIMELINE_SCHEMA_VERSION": "repro.comm.fabric",
    "load_timeline": "repro.comm.fabric",
    "FaultSpec": "repro.network.faults",
    "FaultSchedule": "repro.network.faults",
    "IssueContext": "repro.comm.plan",
    "PlanCache": "repro.comm.plan",
    "PlannedExecution": "repro.comm.plan",
    "CacheInfo": "repro.comm.plan",
    "AlgorithmCaps": "repro.comm.registry",
    "AlgorithmEntry": "repro.comm.registry",
    "CommError": "repro.comm.registry",
    "UnknownAlgorithmError": "repro.comm.registry",
    "UnknownKnobError": "repro.comm.registry",
    "CapabilityError": "repro.comm.registry",
    "register_algorithm": "repro.comm.registry",
    "register_auto_selector": "repro.comm.registry",
    "available_auto_modes": "repro.comm.registry",
    "DEFAULT_AUTO_MODE": "repro.comm.registry",
    "unregister_algorithm": "repro.comm.registry",
    "get_algorithm": "repro.comm.registry",
    "available_algorithms": "repro.comm.registry",
    "iter_algorithms": "repro.comm.registry",
    "match_algorithms": "repro.comm.registry",
    "rejection_reasons": "repro.comm.registry",
    "resolve": "repro.comm.registry",
    "build_plan": "repro.comm.plan",
    "Wiring": "repro.comm.wiring",
    "WIRING_PARAMS": "repro.comm.wiring",
    "wait_all": "repro.comm.future",
    "wait_any": "repro.comm.future",
    "EXECUTE_KEYS": "repro.comm.communicator",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
