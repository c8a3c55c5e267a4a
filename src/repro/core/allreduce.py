"""End-to-end switch-level allreduce driver, dense and sparse.

One allreduce on one simulated PsPIN switch: the aggregation handler is
installed as the root of a one-switch reduction tree that multicasts to
every child; hosts' packets are synthesized with staggered sending and
exponential jitter; the PsPIN behavioral model executes them; the
result reports bandwidth, memory occupancy, and the actual aggregated
vectors (so tests verify numerics, not just timing).

The driver is split plan/execute (the :mod:`repro.comm` contract):
:func:`plan_switch_allreduce` performs the one-time control-plane work —
configuration checks, the Sec. 6.4 aggregation design (or, given a
``density``, the Sec. 7 sparse storage), arrival-rate sizing — and the
returned :class:`SwitchAllreducePlan` can then
:meth:`~SwitchAllreducePlan.execute` many allreduces of that shape, each
on a fresh simulated switch.  Both designs run through that one
``execute``; what differs is a small design object that builds the
handler, builds the packet train and collects the outputs
(:class:`DenseDesign` here, :class:`~repro.sparse.allreduce
.SparseDesign` for sparse).  A run whose blocks do not fit the switch's
memory raises :class:`SwitchInfeasibleError`.

This driver is what the Fig. 11 and Fig. 14 benchmarks run.  Like the
paper, the default simulates 4 clusters ("the actual PsPIN
implementation only simulates 4 clusters") fed their fair share of line
rate and scales bandwidth linearly to the 64-cluster design point
("because the clusters are organized in a shared-nothing configuration,
we scale the results linearly with the number of deployed clusters").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.config import FlareConfig
from repro.core.handler_base import HandlerConfig
from repro.core.ops import ReductionOp, get_op
from repro.core.policy import AlgorithmChoice, build_handler, parse_aggregation, select_algorithm
from repro.core.staggered import arrival_arrays
from repro.errors import CapabilityError
from repro.provenance.collect import collect_switch
from repro.pspin.costs import CostModel
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.pspin.train import PacketTrain
from repro.utils.rngtools import seeded_rng
from repro.utils.units import parse_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.allreduce import SparseDesign

#: The paper's full design point (Sec. 3): 64 clusters of 8 cores.
FULL_CLUSTERS = 64

#: The one allreduce a driver switch runs.
ALLREDUCE_ID = 1


def scale_bandwidth(sim_tbps: float, sim_clusters: int, target_clusters: int = FULL_CLUSTERS) -> float:
    """Linear shared-nothing cluster scaling (paper Sec. 6.4)."""
    if sim_clusters < 1:
        raise ValueError("sim_clusters must be >= 1")
    if target_clusters < 1:
        raise ValueError("target_clusters must be >= 1")
    return sim_tbps * target_clusters / sim_clusters


def fair_share_interarrival(switch_cfg: SwitchConfig, packet_bytes: int) -> float:
    """Packet interarrival (cycles) feeding the simulated clusters their
    fair share of line rate: 4 of 64 clusters see 4/64 of the traffic."""
    delta_full = switch_cfg.packet_interarrival_cycles(packet_bytes)
    return delta_full * FULL_CLUSTERS / switch_cfg.n_clusters


def make_dense_blocks(
    n_hosts: int,
    n_blocks: int,
    n_elements: int,
    dtype: str = "float32",
    seed: int = 0,
) -> np.ndarray:
    """Random per-host block payloads, shape (hosts, blocks, elements).

    Values are small integers stored in ``dtype`` so integer sums never
    overflow for realistic host counts and float sums stay exact enough
    to compare against a numpy golden model.
    """
    rng = seeded_rng(seed)
    data = rng.integers(0, 7, size=(n_hosts, n_blocks, n_elements))
    return data.astype(dtype)


class SwitchInfeasibleError(CapabilityError):
    """The switch's memory cannot hold the allreduce (e.g. array
    storage at low density, paper Fig. 14's missing 1% bars)."""

    def __init__(self, reason: str, block_memory_bytes: int, fast_path_used: bool) -> None:
        super().__init__(f"the switch cannot hold this allreduce: {reason}")
        self.reason = reason
        #: Per-block storage the handler tried to place (0 for dense).
        self.block_memory_bytes = block_memory_bytes
        self.fast_path_used = fast_path_used


@dataclass
class SwitchAllreduceResult:
    """Outcome of one simulated switch-level allreduce."""

    algorithm: str                        # aggregation design, or sparse-<storage>
    data_bytes: int                       # per host (sparsified, for sparse)
    dtype: str
    n_children: int
    n_blocks: int
    sim_clusters: int
    makespan_cycles: float
    sim_bandwidth_tbps: float
    bandwidth_tbps: float                 # scaled to the full design point
    elements_per_second: float            # scaled
    #: Payload bytes the hosts sent, summed (what the bandwidth divides).
    ingress_payload_bytes: int
    peak_input_buffer_bytes: int
    peak_working_memory_bytes: float
    contention_wait_cycles: float
    icache_fills: int
    deferred_arrivals: int
    blocks_completed: int
    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    #: Arrival time of the last packet; ``makespan_cycles`` minus this
    #: is the processing tail the arrival stream does not cover.
    last_arrival_cycles: float = 0.0
    #: True when the packet-train fast path simulated the whole run
    #: analytically (bitwise/makespan-identical to the per-packet DES).
    fast_path_used: bool = False
    #: Provenance counter snapshot (:func:`repro.provenance.collect
    #: .collect_switch`), captured here because the simulated switch is
    #: per-execution and gone once this result exists.  Engine-
    #: independent: the fast path commits identical telemetry.
    provenance: dict = field(default_factory=dict)
    # Sparse runs only (None for dense): storage, per-block storage
    # memory, egress, the ideal egress of perfect aggregation, spilled
    # bytes, and the extra traffic over ideal in percent.
    storage: Optional[str] = None
    density: Optional[float] = None
    block_memory_bytes: Optional[int] = None
    egress_payload_bytes: Optional[int] = None
    ideal_egress_bytes: Optional[int] = None
    spilled_bytes: Optional[int] = None
    extra_traffic_pct: Optional[float] = None

    def summary(self) -> str:
        if self.storage is None:
            return (
                f"{self.algorithm}: {self.bandwidth_tbps:.2f} Tbps "
                f"({self.n_blocks} blocks x {self.n_children} children, "
                f"makespan {self.makespan_cycles:.0f} cycles)"
            )
        # Whole percents hide the paper's sub-1% densities (0.2% -> "0%").
        d = f"{self.density:.0%}" if self.density >= 0.01 else f"{self.density:.2%}"
        return (
            f"{self.algorithm} d={d}: {self.bandwidth_tbps:.2f} Tbps, block mem "
            f"{self.block_memory_bytes / 1024:.1f} KiB, extra traffic "
            f"{self.extra_traffic_pct:.0f}%"
        )


@dataclass
class DenseDesign:
    """Dense aggregation (Secs. 4-6) on the switch: the chosen buffer
    design, the hosts' vectors as one :class:`PacketTrain`, outputs
    checked against a numpy reduction."""

    cfg: FlareConfig
    choice: AlgorithmChoice
    operator: ReductionOp

    @property
    def label(self) -> str:
        return self.choice.label

    @property
    def element_bytes(self) -> int:
        return self.cfg.dtype.size_bytes

    def describe(self) -> dict:
        return {
            "aggregation": self.choice.label,
            "reason": self.choice.reason,
            "blocks": self.cfg.blocks,
            "elements_per_packet": self.cfg.elements_per_packet,
        }

    def handler(self):
        cfg = self.cfg
        return build_handler(self.choice, HandlerConfig(
            allreduce_id=ALLREDUCE_ID,
            n_children=cfg.children,
            dtype_name=cfg.dtype_name,
            multicast_ports=list(range(cfg.children)),
            reproducible=cfg.reproducible,
            op=self.operator,
        ))

    def train(self, data: Optional[np.ndarray], seed: int, arrivals):
        """``(train, data, n_blocks)``: the explicit payloads of shape
        ``(children, n_blocks, elements_per_packet)`` (a 2-D ``(children,
        n_blocks * elements_per_packet)`` array is reshaped), or random
        ones from ``seed``, sent along ``arrivals(n_blocks=)``."""
        cfg = self.cfg
        expected = (cfg.children, cfg.blocks, cfg.elements_per_packet)
        if data is None:
            data = make_dense_blocks(*expected, dtype=cfg.dtype_name, seed=seed)
        else:
            if data.ndim == 2 and data.shape == (cfg.children, expected[1] * expected[2]):
                data = data.reshape(expected)
            if data.shape != expected:
                raise ValueError(f"data shape {data.shape} != expected {expected}")
        times, hosts, blocks = arrivals(n_blocks=cfg.blocks)
        train = PacketTrain(ALLREDUCE_ID, times=times, block_ids=blocks, ports=hosts, data=data)
        return train, data, cfg.blocks

    def collect(self, switch, handler, data: np.ndarray, verify: bool) -> dict:
        outputs = switch.block_outputs()
        if verify:
            _verify_outputs(outputs, data, self.operator, self.cfg.dtype_name)
        return {"outputs": outputs}


@dataclass
class SwitchAllreducePlan:
    """One planned switch-level allreduce shape, executable many times.

    Everything request-shape-dependent is computed exactly once — the
    checked :class:`FlareConfig`, the design (Sec. 6.4 aggregation or
    Sec. 7 storage), the switch configuration, and the fair-share
    arrival rate.  :meth:`execute` instantiates a fresh simulated switch
    (the data plane is stateful) and runs one allreduce through it.
    """

    flare_cfg: FlareConfig
    switch_cfg: SwitchConfig
    design: "DenseDesign | SparseDesign"
    delta_sim: float          # fair-share packet interarrival (cycles)

    def describe(self) -> dict:
        """Plan metadata (what the control plane decided)."""
        return {
            **self.design.describe(),
            "children": self.flare_cfg.children,
            "sim_clusters": self.switch_cfg.n_clusters,
            "delta_sim_cycles": self.delta_sim,
        }

    def execute(
        self,
        data=None,
        *,
        seed: int = 0,
        jitter: float = 1.0,
        cold_start: bool = True,
        verify: bool = True,
    ) -> SwitchAllreduceResult:
        """Run one allreduce of the planned shape.

        ``data`` may supply the payload — dense host vectors (see
        :meth:`DenseDesign.train`) or a sparse
        :class:`~repro.sparse.formats.SparseWorkload`; otherwise one is
        generated from ``seed``.  With ``verify`` the aggregated outputs
        are checked against a golden reduction (exact for integers).
        Raises :class:`SwitchInfeasibleError` when the blocks do not fit
        the switch's memory.
        """
        cfg, design = self.flare_cfg, self.design
        arrivals = partial(
            arrival_arrays,
            n_hosts=cfg.children,
            delta=self.delta_sim,
            staggered=cfg.staggered,
            jitter=jitter,
            seed=seed + 1,
        )
        train, data, n_blocks = design.train(data, seed, arrivals)
        payload_bytes, last_arrival = train.payload_bytes, float(train.times.max())

        switch = PsPINSwitch(self.switch_cfg)
        handler = design.handler()
        switch.register_handler(handler)
        switch.install_allreduce(ALLREDUCE_ID, handler.name)
        if not cold_start:
            for cluster in switch.clusters:
                cluster.icache_load(handler.name)
        fast_path_used = switch.inject_train(train)
        del train   # free the flat arrays: fallback packets hold their own views
        try:
            makespan = switch.run()
        except MemoryError as exc:
            raise SwitchInfeasibleError(
                str(exc).split(";")[0],
                block_memory_bytes=getattr(handler, "peak_block_memory", 0),
                fast_path_used=fast_path_used,
            ) from exc
        fields = design.collect(switch, handler, data, verify)

        n_clusters = self.switch_cfg.n_clusters
        # An empty run takes no time and moves nothing: rates of 0.
        seconds = makespan / (cfg.cost_model.clock_ghz * 1e9) if makespan > 0 else float("inf")
        sim_tbps = payload_bytes * 8.0 / seconds / 1e12
        tel = switch.telemetry
        return SwitchAllreduceResult(
            algorithm=design.label,
            data_bytes=cfg.data_bytes,
            dtype=cfg.dtype_name,
            n_children=cfg.children,
            n_blocks=n_blocks,
            sim_clusters=n_clusters,
            makespan_cycles=makespan,
            sim_bandwidth_tbps=sim_tbps,
            bandwidth_tbps=scale_bandwidth(sim_tbps, n_clusters),
            elements_per_second=scale_bandwidth(
                payload_bytes / design.element_bytes / seconds, n_clusters
            ),
            ingress_payload_bytes=payload_bytes,
            peak_input_buffer_bytes=switch.memories.l2_packet.peak_bytes,
            peak_working_memory_bytes=tel.working_memory_bytes.peak,
            contention_wait_cycles=tel.contention_wait_cycles.value,
            icache_fills=int(tel.icache_fills.value),
            deferred_arrivals=int(tel.deferred_arrivals.value),
            blocks_completed=handler.blocks_completed,
            last_arrival_cycles=last_arrival,
            fast_path_used=fast_path_used,
            provenance=collect_switch(switch),
            **fields,
        )


def plan_switch_allreduce(
    data_bytes: int | str,
    children: int = 64,
    algorithm: Optional[str] = None,
    dtype: str = "float32",
    n_clusters: int = 4,
    cores_per_cluster: int = 8,
    subset_size: Optional[int] = None,
    scheduler: str = "hierarchical",
    staggered: bool = True,
    reproducible: bool = False,
    op: "str | ReductionOp" = "sum",
    cost_model: Optional[CostModel] = None,
    packet_bytes: int = 1024,
    density: Optional[float] = None,
    storage: str = "hash",
    correlation: float = 0.0,
    hash_slots_factor: float = 4.0,
) -> SwitchAllreducePlan:
    """Plan one allreduce shape through a Flare switch.

    Parameters mirror the paper's experimental knobs; see
    :class:`repro.core.config.FlareConfig` for symbol definitions.
    A ``density`` plans the sparse design (Sec. 7): ``data_bytes`` is
    then the sparsified per-host volume (indices + values), aggregated
    in ``storage`` (``"hash"`` or ``"array"``); ``correlation`` biases
    the generated hosts toward shared non-zero positions.
    """
    data_bytes = parse_size(data_bytes)
    cost_model = cost_model or CostModel()
    operator = get_op(op)

    flare_cfg = FlareConfig(
        n_clusters=n_clusters,
        cores_per_cluster=cores_per_cluster,
        children=children,
        subset_size=subset_size,
        packet_bytes=packet_bytes,
        dtype_name=dtype,
        data_bytes=data_bytes,
        staggered=staggered,
        reproducible=reproducible,
        cost_model=cost_model,
    )
    switch_cfg = SwitchConfig(
        n_clusters=n_clusters,
        cores_per_cluster=cores_per_cluster,
        scheduler=scheduler,
        subset_size=subset_size,
        cost_model=cost_model,
    )
    delta_sim = fair_share_interarrival(switch_cfg, packet_bytes)

    if density is None:
        if algorithm is None:
            choice = select_algorithm(data_bytes, reproducible=reproducible, op=operator)
        else:
            choice = parse_aggregation(algorithm)
        design = DenseDesign(flare_cfg, choice, operator)
    else:
        if algorithm is not None or operator.name != "sum":
            raise ValueError(
                "a sparse plan sums with its storage; aggregation and op "
                "apply to the dense design"
            )
        from repro.sparse.allreduce import SparseDesign
        from repro.sparse.handlers import SparseHandlerConfig

        hconf = SparseHandlerConfig(
            allreduce_id=ALLREDUCE_ID,
            n_children=children,
            storage=storage,
            density=density,
            dtype_name=dtype,
            packet_bytes=packet_bytes,
            hash_slots_factor=hash_slots_factor,
        )
        n_blocks = max(1, data_bytes // (hconf.elements_per_packet * SparseDesign.element_bytes))
        design = SparseDesign(hconf, n_blocks, delta_sim, correlation)
    return SwitchAllreducePlan(flare_cfg, switch_cfg, design, delta_sim)


def _verify_outputs(
    outputs: dict[int, np.ndarray],
    data: np.ndarray,
    operator: ReductionOp,
    dtype: str,
) -> None:
    """Check every aggregated block against a numpy golden model.

    The golden reduction folds host slabs in host order with the same
    in-place combine the handlers use (one vectorized pass per host, not
    per block), so integer results are exact and float results land
    within combine-order tolerance.
    """
    n_hosts, n_blocks, _ = data.shape
    if len(outputs) != n_blocks:
        raise AssertionError(
            f"expected {n_blocks} aggregated blocks, got {len(outputs)}"
        )
    golden = data[0].copy()                       # (blocks, elements)
    for h in range(1, n_hosts):
        operator.combine_into(golden, data[h])
    got = np.stack([outputs[b] for b in range(n_blocks)])
    if np.issubdtype(golden.dtype, np.integer):
        if not np.array_equal(got, golden):
            bad = np.nonzero(~np.all(got == golden, axis=1))[0][0]
            raise AssertionError(f"block {bad}: integer aggregation mismatch")
    else:
        if not np.allclose(got, golden, rtol=1e-5, atol=1e-5):
            ok = np.isclose(got, golden, rtol=1e-5, atol=1e-5).all(axis=1)
            raise AssertionError(
                f"block {np.nonzero(~ok)[0][0]}: float aggregation mismatch"
            )
