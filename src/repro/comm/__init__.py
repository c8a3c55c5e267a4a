"""repro.comm — the unified communicator API.

The library's primary entry point: an algorithm registry with declared
capabilities, plan/execute separation with an LRU plan cache, and the
:class:`Communicator` facade with blocking (``allreduce``) and
non-blocking (``iallreduce``) collectives.

Importing this package registers every built-in algorithm::

    from repro.comm import Communicator

    comm = Communicator(n_hosts=16)
    print(comm.allreduce("256KiB").summary())
"""

from __future__ import annotations

from repro.collectives.result import CollectiveResult
from repro.comm.communicator import Communicator, EXECUTE_KEYS
from repro.comm.fabric import (
    TIMELINE_SCHEMA_VERSION,
    Fabric,
    FabricError,
    load_timeline,
)
from repro.comm.future import (
    CollectiveError,
    CollectiveFuture,
    wait_all,
    wait_any,
)
from repro.comm.plan import (
    CacheInfo,
    CollectivePlan,
    IssueContext,
    PlanCache,
    PlannedExecution,
    build_plan,
)
from repro.core.manager import AdmissionError
from repro.network.faults import FaultSchedule, FaultSpec
from repro.comm.registry import (
    AlgorithmCaps,
    AlgorithmEntry,
    CapabilityError,
    CommError,
    DEFAULT_AUTO_MODE,
    UnknownAlgorithmError,
    UnknownKnobError,
    available_algorithms,
    available_auto_modes,
    get_algorithm,
    iter_algorithms,
    match_algorithms,
    register_algorithm,
    register_auto_selector,
    rejection_reasons,
    resolve,
    unregister_algorithm,
)
from repro.comm.request import CollectiveRequest
from repro.comm.wiring import WIRING_PARAMS, Wiring

# Importing the backends populates the registry with the built-ins;
# the planner registers the "cost" auto_mode selector on top of them.
import repro.comm.backends  # noqa: F401  (import for side effect)
import repro.comm.planner   # noqa: F401  (import for side effect)


__all__ = [
    "AdmissionError",
    "Communicator",
    "CollectiveError",
    "CollectiveRequest",
    "CollectiveResult",
    "CollectivePlan",
    "CollectiveFuture",
    "Fabric",
    "FabricError",
    "TIMELINE_SCHEMA_VERSION",
    "load_timeline",
    "FaultSpec",
    "FaultSchedule",
    "IssueContext",
    "PlanCache",
    "PlannedExecution",
    "CacheInfo",
    "AlgorithmCaps",
    "AlgorithmEntry",
    "CommError",
    "UnknownAlgorithmError",
    "UnknownKnobError",
    "CapabilityError",
    "register_algorithm",
    "register_auto_selector",
    "available_auto_modes",
    "DEFAULT_AUTO_MODE",
    "unregister_algorithm",
    "get_algorithm",
    "available_algorithms",
    "iter_algorithms",
    "match_algorithms",
    "rejection_reasons",
    "resolve",
    "build_plan",
    "Wiring",
    "WIRING_PARAMS",
    "wait_all",
    "wait_any",
    "EXECUTE_KEYS",
]
