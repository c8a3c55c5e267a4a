"""Flare core: the paper's primary contribution.

Dense in-network allreduce on the PsPIN switch substrate — the
aggregation designs of Sec. 6 (B shared buffers per block, single
buffer being B = 1, and the tree),
the closed-form performance/occupancy models of Secs. 4-6, the staggered
sending technique of Sec. 5, the algorithm-selection policy of Sec. 6.4,
the network-manager control plane of Sec. 4, and the one switch-level
driver that runs the dense designs and the sparse one of Sec. 7.
"""

from repro.core.config import FlareConfig
from repro.core.ops import ReductionOp, SUM, MIN, MAX, PROD, get_op
from repro.core.handler_base import HandlerConfig, PARENT_PORT
from repro.core.models import (
    ModelInputs,
    bandwidth_packets_per_cycle,
    input_buffer_packets,
    block_latency_cycles,
    working_memory_buffers,
    max_staggered_interarrival,
    evaluate_design,
    DesignPoint,
)
from repro.core.blockstate import BlockState, ChildrenBitmap
from repro.core.buffers import BufferPool, AggregationBuffer
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.tree_buffer import TreeAggregationHandler
from repro.core.policy import parse_aggregation, select_algorithm, ALGORITHMS
from repro.core.manager import (
    AdmissionError,
    AdmissionTicket,
    NetworkManager,
)
from repro.core.allreduce import (
    SwitchAllreducePlan,
    SwitchAllreduceResult,
    SwitchInfeasibleError,
    plan_switch_allreduce,
    make_dense_blocks,
    scale_bandwidth,
)

__all__ = [
    "FlareConfig",
    "ReductionOp",
    "SUM",
    "MIN",
    "MAX",
    "PROD",
    "get_op",
    "HandlerConfig",
    "PARENT_PORT",
    "ModelInputs",
    "bandwidth_packets_per_cycle",
    "input_buffer_packets",
    "block_latency_cycles",
    "working_memory_buffers",
    "max_staggered_interarrival",
    "evaluate_design",
    "DesignPoint",
    "BlockState",
    "ChildrenBitmap",
    "BufferPool",
    "AggregationBuffer",
    "MultiBufferHandler",
    "TreeAggregationHandler",
    "parse_aggregation",
    "select_algorithm",
    "ALGORITHMS",
    "AdmissionError",
    "AdmissionTicket",
    "NetworkManager",
    "SwitchAllreducePlan",
    "SwitchAllreduceResult",
    "SwitchInfeasibleError",
    "plan_switch_allreduce",
    "make_dense_blocks",
    "scale_bandwidth",
]
