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

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "SparseBlock": "repro.sparse.formats",
    "SparseChunk": "repro.sparse.formats",
    "sparsify_dense": "repro.sparse.formats",
    "split_into_blocks": "repro.sparse.formats",
    "packetize_block": "repro.sparse.formats",
    "make_sparse_workload": "repro.sparse.formats",
    "HashStorage": "repro.sparse.hash_storage",
    "ArrayStorage": "repro.sparse.array_storage",
    "SparseAggregationHandler": "repro.sparse.handlers",
    "SparseHandlerConfig": "repro.sparse.handlers",
    "expected_union": "repro.sparse.densify",
    "densification_profile": "repro.sparse.densify",
    "sparse_packet_cycles": "repro.sparse.models",
    "sparse_design_point": "repro.sparse.models",
    "SparseDesign": "repro.sparse.allreduce",
    "reassemble_egress": "repro.sparse.allreduce",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
