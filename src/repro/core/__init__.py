"""Flare core: the paper's primary contribution.

Dense in-network allreduce on the PsPIN switch substrate — the
aggregation designs of Sec. 6 (B shared buffers per block, single
buffer being B = 1, and the tree),
the closed-form performance/occupancy models of Secs. 4-6, the staggered
sending technique of Sec. 5, the algorithm-selection policy of Sec. 6.4,
the network-manager control plane of Sec. 4, and the one switch-level
driver that runs the dense designs and the sparse one of Sec. 7.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "FlareConfig": "repro.core.config",
    "ReductionOp": "repro.core.ops",
    "SUM": "repro.core.ops",
    "MIN": "repro.core.ops",
    "MAX": "repro.core.ops",
    "PROD": "repro.core.ops",
    "get_op": "repro.core.ops",
    "HandlerConfig": "repro.core.handler_base",
    "PARENT_PORT": "repro.core.handler_base",
    "ModelInputs": "repro.core.models",
    "bandwidth_packets_per_cycle": "repro.core.models",
    "input_buffer_packets": "repro.core.models",
    "block_latency_cycles": "repro.core.models",
    "working_memory_buffers": "repro.core.models",
    "max_staggered_interarrival": "repro.core.models",
    "evaluate_design": "repro.core.models",
    "DesignPoint": "repro.core.models",
    "BlockState": "repro.core.blockstate",
    "ChildrenBitmap": "repro.core.blockstate",
    "BufferPool": "repro.core.buffers",
    "AggregationBuffer": "repro.core.buffers",
    "MultiBufferHandler": "repro.core.multi_buffer",
    "TreeAggregationHandler": "repro.core.tree_buffer",
    "parse_aggregation": "repro.core.policy",
    "select_algorithm": "repro.core.policy",
    "ALGORITHMS": "repro.core.policy",
    "AdmissionError": "repro.core.manager",
    "AdmissionTicket": "repro.core.manager",
    "NetworkManager": "repro.core.manager",
    "SwitchAllreducePlan": "repro.core.allreduce",
    "SwitchAllreduceResult": "repro.core.allreduce",
    "SwitchInfeasibleError": "repro.core.allreduce",
    "plan_switch_allreduce": "repro.core.allreduce",
    "make_dense_blocks": "repro.core.allreduce",
    "scale_bandwidth": "repro.core.allreduce",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
