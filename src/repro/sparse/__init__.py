"""Flare sparse in-network allreduce (paper Sec. 7).

The first in-network sparse allreduce: hosts send only non-zero
(index, value) pairs; the switch aggregates them in either a hash table
with a spill buffer (density-independent memory, extra traffic on
collisions) or a dense span array (faster, memory ∝ 1/density).  This
package provides the sparse data formats and packetization rules
(multiple-blocks-per-packet prohibition, block split via shard counts,
empty-block markers), both storage backends, the aggregation handler,
densification analytics, and the sparse design of the one switch-level
driver: ``repro.core.allreduce.plan_switch_allreduce(..., density=)``
plans it and its ``execute`` runs it.
"""

from repro.sparse.formats import (
    SparseBlock,
    SparseChunk,
    sparsify_dense,
    split_into_blocks,
    packetize_block,
    make_sparse_workload,
)
from repro.sparse.hash_storage import HashStorage
from repro.sparse.array_storage import ArrayStorage
from repro.sparse.handlers import SparseAggregationHandler, SparseHandlerConfig
from repro.sparse.densify import expected_union, densification_profile
from repro.sparse.models import sparse_packet_cycles, sparse_design_point
from repro.sparse.allreduce import SparseDesign, reassemble_egress

__all__ = [
    "SparseBlock",
    "SparseChunk",
    "sparsify_dense",
    "split_into_blocks",
    "packetize_block",
    "make_sparse_workload",
    "HashStorage",
    "ArrayStorage",
    "SparseAggregationHandler",
    "SparseHandlerConfig",
    "expected_union",
    "densification_profile",
    "sparse_packet_cycles",
    "sparse_design_point",
    "SparseDesign",
    "reassemble_egress",
]
