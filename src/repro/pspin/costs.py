"""Calibrated cycle-cost model for PsPIN handlers.

All constants trace to the paper:

* Sec. 3: the processing unit is clocked at **1 GHz**; each HPU is a
  RI5CY core, extended with an FP32/FP16 FPU.
* Sec. 6 (intro): "a core of the PsPIN unit needs **four cycles to sum
  two 4-byte floating point values** and to store the result back in the
  aggregation buffer", i.e. ~1 ns/byte for fp32 — the packet-aggregation
  cost L = 4 * 256 = 1024 cycles for a 1 KiB packet of 256 fp32 values.
* Sec. 6.3: a DMA copy of a packet costs **64 cycles** "instead of the
  1024 cycles needed for the aggregation".
* Sec. 6.4: RI5CY SIMD "can aggregate, for example, two int16 elements
  in a single cycle" — we model per-dtype cycles/element accordingly
  (int16 at 2x the int32 element rate, int8 at 4x).
* Sec. 6.4: small reductions observe a "cold start" because handler code
  is not yet in the 4 KiB cluster instruction cache; we charge a one-off
  i-cache fill per cluster, modeled as loading the handler image from
  the L2 program memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DType:
    """An element data type processed by aggregation handlers.

    ``cycles_per_element`` is the steady-state cost to read one element
    from each of two operands, combine, and store (RI5CY + FPU, with
    SIMD packing for sub-word integers).
    """

    name: str
    size_bytes: int
    cycles_per_element: float
    is_float: bool = False

    @property
    def elements_per_kib(self) -> int:
        """Elements carried by a 1 KiB dense payload."""
        return 1024 // self.size_bytes


#: Built-in dtypes (paper Fig. 11 right).  fp64 is intentionally absent:
#: "Flare currently does not support the aggregation of double-precision
#: floating-point elements" (Sec. 6.4).
DTYPES: dict[str, DType] = {
    "float32": DType("float32", 4, 4.0, is_float=True),
    "float16": DType("float16", 2, 2.0, is_float=True),
    "int32": DType("int32", 4, 4.0),
    "int16": DType("int16", 2, 2.0),
    "int8": DType("int8", 1, 1.0),
}


def get_dtype(name: str) -> DType:
    """Look up a dtype by name, with a helpful error for fp64."""
    if name in ("float64", "double"):
        raise ValueError(
            "float64 aggregation is not supported by Flare (paper Sec. 6.4); "
            "use float32, or extend DTYPES with a custom cost"
        )
    try:
        return DTYPES[name]
    except KeyError:
        raise ValueError(f"unknown dtype {name!r}; known: {sorted(DTYPES)}") from None


@dataclass
class CostModel:
    """Cycle costs charged by the behavioral switch model.

    Attributes
    ----------
    clock_ghz:
        HPU clock; 1 GHz in the paper, so cycles == nanoseconds.
    dma_copy_cycles_per_kib:
        DMA engine cost to copy one 1 KiB packet L2 -> L1 (64 cycles,
        Sec. 6.3); scales linearly with payload size.
    handler_dispatch_cycles:
        Fixed scheduling/dispatch overhead per handler invocation
        (parser decision + CSCHED pick + handler prologue/epilogue).
    icache_fill_cycles:
        One-off cost the *first* time a cluster executes a given handler:
        loading the handler image from the 32 KiB L2 program memory into
        the 4 KiB cluster i-cache.
    buffer_mgmt_cycles:
        Cost to locate/claim an aggregation buffer (free-list pop, state
        update).  Charged once per handler; multi-buffer and tree designs
        pay it per buffer touched, which is what makes them slightly
        slower than single-buffer at large sizes (paper Sec. 6.4:
        "some additional overhead caused by the management of multiple
        buffers").
    hash_cycles_per_element / array_cycles_per_element:
        Sparse-storage per-element costs (Sec. 7): hash = compute slot +
        probe + insert-or-spill; array = bounds-checked indexed store.
    array_flush_cycles_per_element:
        Scan cost per *span* element when flushing an array-storage block
        at completion (non-zero filtering + packet build).
    spill_flush_cycles:
        Fixed cost to emit a full spill buffer onto the wire.
    remote_l1_penalty:
        Slowdown multiplier applied to aggregation cycles when a handler
        touches a *remote* cluster's L1 (plain FCFS scheduling can place
        a block's packets on any cluster; Sec. 5 cites up to 25x latency
        per access — for a load/store-bound aggregation loop we charge a
        configurable effective multiplier, default 8x, and hierarchical
        scheduling exists precisely to avoid ever paying it).
    """

    clock_ghz: float = 1.0
    dma_copy_cycles_per_kib: float = 64.0
    remote_l1_penalty: float = 8.0
    handler_dispatch_cycles: float = 24.0
    icache_fill_cycles: float = 512.0
    buffer_mgmt_cycles: float = 16.0
    hash_cycles_per_element: float = 20.0
    array_cycles_per_element: float = 14.0
    array_flush_cycles_per_element: float = 1.0
    spill_flush_cycles: float = 64.0

    def aggregation_cycles(self, payload_bytes: int, dtype: DType) -> float:
        """Cycles to element-wise aggregate one dense payload into a buffer.

        This is the paper's ``L`` for a full packet: 1024 cycles for
        1 KiB of fp32.
        """
        n_elements = payload_bytes // dtype.size_bytes
        return n_elements * dtype.cycles_per_element

    def copy_cycles(self, payload_bytes: int) -> float:
        """Cycles for a DMA copy of a payload into a fresh buffer."""
        return self.dma_copy_cycles_per_kib * (payload_bytes / 1024.0)

    def sparse_insert_cycles(self, n_elements: int, storage: str) -> float:
        """Cycles to insert ``n_elements`` (index, value) pairs (Sec. 7)."""
        if storage == "hash":
            return n_elements * self.hash_cycles_per_element
        if storage == "array":
            return n_elements * self.array_cycles_per_element
        raise ValueError(f"unknown sparse storage {storage!r}")

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert cycles to wall-clock nanoseconds at the model clock."""
        return cycles / self.clock_ghz
