"""End-to-end switch-level dense allreduce driver.

Ties the pieces together for one allreduce on one switch: the chosen
aggregation handler is installed on the switch, the root of a
one-switch reduction tree that multicasts to every child; hosts'
packets are synthesized with staggered sending and exponential jitter;
the PsPIN behavioral model executes them; the result reports bandwidth, memory occupancy, and the
actual aggregated vectors (so tests verify numerics, not just timing).

The driver is split plan/execute (the :mod:`repro.comm` contract):
:func:`plan_switch_allreduce` performs the one-time control-plane work —
configuration, Sec. 6.4 algorithm selection, arrival-rate sizing — and
the returned :class:`SwitchAllreducePlan` can then :meth:`~SwitchAllreducePlan.execute`
many allreduces of that shape, each on a fresh simulated switch.

This driver is what the Fig. 11 benchmark runs.  Like the paper, the
default simulates 4 clusters ("the actual PsPIN implementation only
simulates 4 clusters") fed their fair share of line rate and scales
bandwidth linearly to the 64-cluster design point ("because the
clusters are organized in a shared-nothing configuration, we scale the
results linearly with the number of deployed clusters").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro.core.fastpath  # noqa: F401  (registers the train kernels)
from repro.core.config import FlareConfig
from repro.core.handler_base import HandlerConfig
from repro.core.ops import ReductionOp, get_op
from repro.core.policy import AlgorithmChoice, build_handler, parse_aggregation, select_algorithm
from repro.core.staggered import arrival_arrays
from repro.provenance.collect import collect_switch
from repro.pspin.costs import CostModel, get_dtype
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.pspin.train import PacketTrain
from repro.utils.rngtools import seeded_rng
from repro.utils.units import parse_size

#: The paper's full design point (Sec. 3): 64 clusters of 8 cores.
FULL_CLUSTERS = 64


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


@dataclass
class SwitchAllreduceResult:
    """Outcome of one simulated switch-level allreduce."""

    algorithm: str
    data_bytes: int
    dtype: str
    n_children: int
    n_blocks: int
    sim_clusters: int
    makespan_cycles: float
    sim_bandwidth_tbps: float
    bandwidth_tbps: float                 # scaled to the full design point
    elements_per_second: float            # scaled
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

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.bandwidth_tbps:.2f} Tbps "
            f"({self.n_blocks} blocks x {self.n_children} children, "
            f"makespan {self.makespan_cycles:.0f} cycles)"
        )


@dataclass
class SwitchAllreducePlan:
    """One planned switch-level allreduce shape, executable many times.

    Everything request-shape-dependent is computed exactly once — the
    :class:`FlareConfig`, the Sec. 6.4 aggregation-design choice, the
    switch configuration, and the fair-share arrival rate.
    :meth:`execute` instantiates a fresh simulated switch (the data
    plane is stateful) and runs one allreduce through it.
    """

    flare_cfg: FlareConfig
    switch_cfg: SwitchConfig
    choice: AlgorithmChoice
    operator: ReductionOp
    delta_sim: float          # fair-share packet interarrival (cycles)
    executions: int = 0

    @property
    def n_blocks(self) -> int:
        return self.flare_cfg.blocks

    @property
    def elements_per_packet(self) -> int:
        return self.flare_cfg.elements_per_packet

    def describe(self) -> dict:
        """Plan metadata (what the control plane decided)."""
        return {
            "aggregation": self.choice.label,
            "reason": self.choice.reason,
            "children": self.flare_cfg.children,
            "blocks": self.n_blocks,
            "elements_per_packet": self.elements_per_packet,
            "sim_clusters": self.switch_cfg.n_clusters,
            "delta_sim_cycles": self.delta_sim,
        }

    def execute(
        self,
        data: Optional[np.ndarray] = None,
        *,
        seed: int = 0,
        jitter: float = 1.0,
        cold_start: bool = True,
        verify: bool = True,
    ) -> SwitchAllreduceResult:
        """Run one allreduce of the planned shape.

        ``data`` may supply explicit payloads of shape
        ``(children, n_blocks, elements_per_packet)`` (a 2-D
        ``(children, n_blocks * elements_per_packet)`` array is
        reshaped); otherwise random payloads are generated from
        ``seed``.  With ``verify`` the aggregated outputs are checked
        against a numpy golden reduction (exact for integers).
        """
        cfg = self.flare_cfg
        children = cfg.children
        n_blocks, n_elements = self.n_blocks, self.elements_per_packet

        switch = PsPINSwitch(self.switch_cfg)
        hconf = HandlerConfig(
            allreduce_id=1,
            n_children=children,
            dtype_name=cfg.dtype_name,
            multicast_ports=list(range(children)),
            reproducible=cfg.reproducible,
            op=self.operator,
        )
        handler = build_handler(self.choice, hconf)
        switch.register_handler(handler)
        switch.install_allreduce(hconf.allreduce_id, handler.name)
        if not cold_start:
            for cluster in switch.clusters:
                cluster.icache_load(handler.name)

        # --------------------------------------------------------------
        # Workload
        # --------------------------------------------------------------
        if data is None:
            data = make_dense_blocks(
                children, n_blocks, n_elements, dtype=cfg.dtype_name, seed=seed
            )
        else:
            expected = (children, n_blocks, n_elements)
            if data.ndim == 2 and data.shape == (children, n_blocks * n_elements):
                data = data.reshape(expected)
            if data.shape != expected:
                raise ValueError(f"data shape {data.shape} != expected {expected}")

        times, hosts, blocks = arrival_arrays(
            n_hosts=children,
            n_blocks=n_blocks,
            delta=self.delta_sim,
            staggered=cfg.staggered,
            jitter=jitter,
            seed=seed + 1,
        )
        train = PacketTrain(
            hconf.allreduce_id,
            times=times,
            block_ids=blocks,
            ports=hosts,
            data=data,
        )
        fast_path_used = switch.inject_train(train)

        makespan = switch.run()
        self.executions += 1

        # --------------------------------------------------------------
        # Collect + verify
        # --------------------------------------------------------------
        outputs = switch.block_outputs()
        if verify:
            _verify_outputs(outputs, data, self.operator, cfg.dtype_name)

        cost_model = cfg.cost_model
        dt = get_dtype(cfg.dtype_name)
        n_clusters = self.switch_cfg.n_clusters
        payload_bytes = float(data.nbytes)
        seconds = makespan / (cost_model.clock_ghz * 1e9) if makespan > 0 else float("inf")
        sim_tbps = payload_bytes * 8.0 / seconds / 1e12 if makespan > 0 else 0.0
        scaled_tbps = scale_bandwidth(sim_tbps, n_clusters)
        elements_per_second = (
            scale_bandwidth(payload_bytes / dt.size_bytes / seconds, n_clusters)
            if makespan > 0
            else 0.0
        )
        tel = switch.telemetry
        return SwitchAllreduceResult(
            algorithm=self.choice.label,
            data_bytes=cfg.data_bytes,
            dtype=cfg.dtype_name,
            n_children=children,
            n_blocks=n_blocks,
            sim_clusters=n_clusters,
            makespan_cycles=makespan,
            sim_bandwidth_tbps=sim_tbps,
            bandwidth_tbps=scaled_tbps,
            elements_per_second=elements_per_second,
            peak_input_buffer_bytes=switch.memories.l2_packet.peak_bytes,
            peak_working_memory_bytes=tel.working_memory_bytes.peak,
            contention_wait_cycles=tel.contention_wait_cycles.value,
            icache_fills=int(tel.icache_fills.value),
            deferred_arrivals=int(tel.deferred_arrivals.value),
            blocks_completed=handler.blocks_completed,
            outputs=outputs,
            last_arrival_cycles=float(times.max()),
            fast_path_used=fast_path_used,
            provenance=collect_switch(switch),
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
) -> SwitchAllreducePlan:
    """Plan one dense allreduce shape through a Flare switch.

    Parameters mirror the paper's experimental knobs; see
    :class:`repro.core.config.FlareConfig` for symbol definitions.
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

    if algorithm is None:
        choice = select_algorithm(data_bytes, reproducible=reproducible, op=operator)
    else:
        choice = parse_aggregation(algorithm)

    switch_cfg = SwitchConfig(
        n_clusters=n_clusters,
        cores_per_cluster=cores_per_cluster,
        scheduler=scheduler,
        subset_size=subset_size,
        cost_model=cost_model,
    )
    return SwitchAllreducePlan(
        flare_cfg=flare_cfg,
        switch_cfg=switch_cfg,
        choice=choice,
        operator=operator,
        delta_sim=fair_share_interarrival(switch_cfg, packet_bytes),
    )


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
