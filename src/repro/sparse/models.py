"""Closed-form sparse aggregation models (paper Fig. 13).

The sparse models reuse the dense pipeline of :mod:`repro.core.models`
with the per-packet cost L replaced by the sparse storage costs:

* **hash**: every element pays a constant insert cost (slot hash +
  compare + store/spill), so L depends only on the packet size — the
  "constant bandwidth ... independently from the density" behaviour of
  Fig. 14.
* **array**: cheaper per-element indexed stores, plus a per-block flush
  that scans the whole span (span = elements/density), amortized over
  the block's P packets — the reason array bandwidth sinks as density
  drops.

A sparse packet carries ``packet_bytes / 8`` elements (4 B index +
4 B value), half the dense element count, which together with the
costlier per-element handling produces the paper's "lower bandwidth for
the sparse allreduce compared to the dense one".
"""

from __future__ import annotations

from repro.core.config import FlareConfig
from repro.core.models import DesignPoint, evaluate_design
from repro.sparse.densify import SPARSE_ELEMENT_BYTES


def sparse_elements_per_packet(packet_bytes: int) -> int:
    """Elements carried by one sparse packet."""
    return max(1, packet_bytes // SPARSE_ELEMENT_BYTES)


def sparse_packet_cycles(
    cfg: FlareConfig,
    storage: str,
    density: float,
) -> float:
    """The sparse L: cycles to fold one sparse packet into block storage."""
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    n_elem = sparse_elements_per_packet(cfg.packet_bytes)
    cm = cfg.cost_model
    if storage == "hash":
        return n_elem * cm.hash_cycles_per_element
    if storage == "array":
        span = n_elem / density
        flush_amortized = span * cm.array_flush_cycles_per_element / cfg.children
        return n_elem * cm.array_cycles_per_element + flush_amortized
    raise ValueError(f"unknown sparse storage {storage!r}")


def sparse_design_point(
    cfg: FlareConfig,
    algorithm: str,
    storage: str,
    density: float,
    n_buffers: int = 1,
) -> DesignPoint:
    """Fig. 13 model: a dense design point evaluated at the sparse L.

    ``cfg.data_bytes`` is the *sparsified* data size (what hosts send),
    matching the figure's x-axis.
    """
    L = sparse_packet_cycles(cfg, storage, density)
    return evaluate_design(cfg, algorithm, n_buffers=n_buffers, L=L)


def hash_block_memory_bytes(cfg: FlareConfig, slots_factor: float = 4.0) -> int:
    """Resident bytes of one hash-storage block (density-independent)."""
    n_elem = sparse_elements_per_packet(cfg.packet_bytes)
    n_slots = int(n_elem * slots_factor)
    keys = n_slots * 8          # int64 keys
    values = n_slots * 4
    spill = n_elem * SPARSE_ELEMENT_BYTES
    return keys + values + spill


def array_block_memory_bytes(cfg: FlareConfig, density: float) -> int:
    """Resident bytes of one array-storage block (~span * value size)."""
    n_elem = sparse_elements_per_packet(cfg.packet_bytes)
    span = int(round(n_elem / density))
    return span * 4 + span      # values + touched map byte
