"""Behavioral model of the PsPIN programmable-switch processing unit.

The paper builds Flare on PsPIN (Di Girolamo et al., ISCA '21): a
clustered RISC-V packet processor with per-cluster HPUs (handler
processing units), single-cycle L1 TCDM scratchpads, a shared L2, DMA
engines, and a two-level packet scheduler.  The original evaluation uses
the cycle-accurate PsPIN RTL simulator; this package substitutes a
discrete-event behavioral model calibrated with the paper's published
costs (see ``repro.pspin.costs``), which is the granularity the paper's
own analysis operates at.

Structure
---------
``engine``      generic discrete-event simulator (cycle timestamps)
``costs``       calibrated cycle-cost model
``packets``     switch-level packet records
``memory``      L1/L2 capacity + current/peak occupancy
``scheduler``   FCFS and hierarchical FCFS packet scheduling (Sec. 5)
``hpu``         handler processing unit
``cluster``     cluster = HPUs + L1 + DMA + i-cache
``switch``      full switch assembly, allreduce id -> handler table, run loop
``telemetry``   wire/handler counters and the working-memory peak
``train``       packet-train fast path (pinned bitwise to the DES)
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "Simulator": "repro.pspin.engine",
    "CostModel": "repro.pspin.costs",
    "DType": "repro.pspin.costs",
    "DTYPES": "repro.pspin.costs",
    "SwitchPacket": "repro.pspin.packets",
    "MemoryRegion": "repro.pspin.memory",
    "MemoryAccounting": "repro.pspin.memory",
    "FCFSScheduler": "repro.pspin.scheduler",
    "HierarchicalFCFSScheduler": "repro.pspin.scheduler",
    "HPU": "repro.pspin.hpu",
    "Cluster": "repro.pspin.cluster",
    "PsPINSwitch": "repro.pspin.switch",
    "SwitchConfig": "repro.pspin.switch",
    "Telemetry": "repro.pspin.telemetry",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
