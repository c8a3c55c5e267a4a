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

from repro.pspin.engine import Simulator
from repro.pspin.costs import CostModel, DType, DTYPES
from repro.pspin.packets import SwitchPacket
from repro.pspin.memory import MemoryRegion, MemoryAccounting
from repro.pspin.scheduler import FCFSScheduler, HierarchicalFCFSScheduler
from repro.pspin.hpu import HPU
from repro.pspin.cluster import Cluster
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.pspin.telemetry import Telemetry

__all__ = [
    "Simulator",
    "CostModel",
    "DType",
    "DTYPES",
    "SwitchPacket",
    "MemoryRegion",
    "MemoryAccounting",
    "FCFSScheduler",
    "HierarchicalFCFSScheduler",
    "HPU",
    "Cluster",
    "PsPINSwitch",
    "SwitchConfig",
    "Telemetry",
]
