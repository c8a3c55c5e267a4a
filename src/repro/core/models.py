"""Closed-form performance and occupancy models (paper Secs. 4-6).

These are the equations behind the paper's *modeled* figures (Fig. 7,
Fig. 10, Fig. 13).  Symbols follow Table 2:

====  ==========================================================
K     number of cores in the switch
S     cores per scheduling subset
C     cores per cluster
P     packets per block (= children of the switch in the tree)
delta         mean interarrival of packets to the switch (cycles)
delta_c       mean interarrival of packets *within* a block
delta_k       mean interarrival of a burst's packets to one core
tau           mean service time of a core (cycles/packet)
L     cycles to aggregate one packet once inside the critical section
M     buffers used per block
Q     max per-core queue length;  script-Q = (Q+1)K packets in switch
====  ==========================================================

Key equations implemented here:

* ``delta_k = min(S * delta_c, K * delta)``                     (Sec. 5)
* ``Q = (P/S) * (1 - delta_k / tau)``; ``script_Q = (Q+1)K``    (Eq. 1)
* ``B = min(K/tau, 1/delta)`` packets/cycle                     (Sec. 4.1)
* ``latency = (P-1) delta_c + (Q+1) tau``                       (Sec. 5)
* ``R = M * (B/P) * latency`` working-memory buffers            (Sec. 4.3)
* B-buffer tau (Eq. 2 is single buffer, B = 1; Sec. 6.2),
  tree tau (Sec. 6.3).

A note on Eq. 2's contended service time: the paper derives
``tau = (sum_{i=1..C} i L) / C`` and reports it as ``L (C-1)/2``; the sum
actually evaluates to ``L (C+1)/2``.  We implement the paper's *stated*
closed form (``L (S-1)/2`` for a subset of S contenders, floored at L so
a 1- or 2-core subset is never modeled faster than uncontended) because
the paper's plotted curves are consistent with it; the derivation
discrepancy is half a service time and does not change any shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import FlareConfig


@dataclass(frozen=True)
class ModelInputs:
    """Raw symbol values consumed by the closed-form models."""

    K: int              # cores
    S: int              # subset size
    C: int              # cores per cluster
    P: int              # packets per block (children)
    delta: float        # packet interarrival (cycles)
    delta_c: float      # intra-block interarrival (cycles)
    L: float            # in-critical-section aggregation cycles per packet
    copy_cycles: float = 0.0   # DMA copy cost (tree aggregation)
    packet_bytes: int = 1024
    clock_ghz: float = 1.0

    def __post_init__(self) -> None:
        if self.S < 1 or self.S > self.K:
            raise ValueError(f"S={self.S} must be in [1, K={self.K}]")
        if self.P < 1:
            raise ValueError("P must be >= 1")
        if self.delta <= 0 or self.delta_c < self.delta:
            raise ValueError("need delta > 0 and delta_c >= delta")


# ----------------------------------------------------------------------
# Service-time models (tau) per aggregation design
# ----------------------------------------------------------------------
def contended_tau(L: float, contenders: float) -> float:
    """Paper Eq. 2 contended branch: ``L (S-1)/2`` floored at ``L``."""
    return max(L, L * (contenders - 1) / 2.0)


def effective_contenders(S: int, L: float, spacing: float) -> float:
    """Expected concurrent handlers per aggregation buffer.

    Eq. 2 gives the worst case (all S cores of the subset collide).  The
    expected degree interpolates with the fraction of a service time the
    packets overlap: spaced ``spacing`` apart, a handler overlaps the
    ``max(0, 1 - spacing/L)`` fraction of its predecessors, so

        C_eff = 1 + (S - 1) * max(0, 1 - spacing / L)

    which recovers Eq. 2's bound at spacing=0 and the uncontended case
    at spacing >= L.  Multi-buffer aggregation widens the spacing by B
    (a conflict needs all B buffers busy), producing Fig. 10's "the
    higher the number of buffers, the higher the bandwidth for smaller
    messages" ordering.
    """
    overlap = max(0.0, 1.0 - spacing / L)
    return 1.0 + (S - 1) * overlap


def multi_buffer_tau(m: ModelInputs, n_buffers: int) -> tuple[float, bool]:
    """Service time for B-buffer aggregation (Secs. 6.1 and 6.2).

    Returns ``(tau, contended)``.  With one buffer (Sec. 6.1, Eq. 2),
    contention disappears when packets of a block are serialized onto
    one core (S=1) or spaced at least a service time apart (delta_c >=
    L, achievable via staggered sending for large enough data).  B
    buffers relax that condition by a factor B ("the probability that
    two running handlers need to access the same buffer decreases
    proportionally with B" — we substitute B*delta_c for delta_c), and
    the last handler folds the other B-1 buffers together at (B-1)L
    extra cycles, amortized to (B-1)L/P per packet.
    """
    if n_buffers < 1:
        raise ValueError("n_buffers must be >= 1")
    merge_overhead = (n_buffers - 1) * m.L / m.P
    spacing = n_buffers * m.delta_c
    if m.S == 1 or spacing >= m.L:
        return m.L + merge_overhead, False
    tau = contended_tau(m.L, effective_contenders(m.S, m.L, spacing))
    return tau + merge_overhead, True


def tree_tau(m: ModelInputs) -> tuple[float, bool]:
    """Service time for tree aggregation (Sec. 6.3) — never contended.

    Each packet is DMA-copied into its own buffer (64 cycles/KiB rather
    than the ~1024-cycle aggregation); P-1 pairwise merges are spread
    over the P handlers, so the per-packet average is (P-1)L/P plus the
    copy.
    """
    tau = m.copy_cycles + (m.P - 1) * m.L / m.P
    return tau, False


def tree_buffers_per_block(P: int) -> float:
    """M for tree aggregation: (P-1)/log2(P) live buffers on average."""
    if P <= 1:
        return 1.0
    return (P - 1) / math.log2(P)


# ----------------------------------------------------------------------
# Shared occupancy/throughput equations
# ----------------------------------------------------------------------
def bandwidth_packets_per_cycle(K: int, tau: float, delta: float) -> float:
    """``B = min(K/tau, 1/delta)`` — compute-bound vs line-rate-bound."""
    return min(K / tau, 1.0 / delta)


def burst_interarrival(m: ModelInputs) -> float:
    """``delta_k = min(S delta_c, K delta)`` (Sec. 5)."""
    return min(m.S * m.delta_c, m.K * m.delta)


def queue_length(m: ModelInputs, tau: float) -> float:
    """Max per-core queue build-up during a burst (derivation of Eq. 1)."""
    dk = burst_interarrival(m)
    return max(0.0, (m.P / m.S) * (1.0 - dk / tau))


def input_buffer_packets(m: ModelInputs, tau: float) -> float:
    """Eq. 1: ``script_Q = (Q+1) K`` — max packets resident in the switch."""
    return (queue_length(m, tau) + 1.0) * m.K


def block_latency_cycles(m: ModelInputs, tau: float) -> float:
    """``latency = (P-1) delta_c + (Q+1) tau`` (Sec. 5)."""
    return (m.P - 1) * m.delta_c + (queue_length(m, tau) + 1.0) * tau


def working_memory_buffers(m: ModelInputs, tau: float, buffers_per_block: float) -> float:
    """Little's law: ``R = M * (B/P) * latency`` buffers (Sec. 4.3)."""
    bw_blocks = bandwidth_packets_per_cycle(m.K, tau, m.delta) / m.P
    return buffers_per_block * bw_blocks * block_latency_cycles(m, tau)


def max_staggered_interarrival(delta: float, blocks: int) -> float:
    """Upper bound on delta_c achievable by staggered sending (Sec. 5).

    ``delta <= delta_c <= delta * Z/N``: with only ``blocks`` distinct
    blocks in flight, hosts can spread a block's packets at most over the
    whole per-host sending window.
    """
    return delta * max(1, blocks)


# ----------------------------------------------------------------------
# High-level evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesignPoint:
    """Model outputs for one (algorithm, configuration) pair."""

    algorithm: str
    tau: float
    contended: bool
    bandwidth_packets_per_cycle: float
    bandwidth_tbps: float
    queue_length: float
    input_buffer_packets: float
    input_buffer_bytes: float
    latency_cycles: float
    buffers_per_block: float
    working_buffers: float
    working_memory_bytes: float


def _inputs_from_config(cfg: FlareConfig, L: float | None = None) -> ModelInputs:
    L_eff = L if L is not None else cfg.aggregation_cycles
    return ModelInputs(
        K=cfg.n_cores,
        S=int(cfg.subset_size or cfg.cores_per_cluster),
        C=cfg.cores_per_cluster,
        P=cfg.children,
        delta=cfg.delta,
        delta_c=max(cfg.delta, min(cfg.delta_c, L_eff)),
        L=L_eff,
        copy_cycles=cfg.cost_model.copy_cycles(cfg.packet_bytes),
        packet_bytes=cfg.packet_bytes,
        clock_ghz=cfg.cost_model.clock_ghz,
    )


def evaluate_design(
    cfg: FlareConfig,
    algorithm: str,
    n_buffers: int = 1,
    L: float | None = None,
) -> DesignPoint:
    """Run the full model pipeline for one aggregation design.

    ``L`` may override the dense per-packet aggregation cost — the
    sparse models (Fig. 13) reuse the same pipeline with the sparse
    storage costs from :mod:`repro.sparse`.

    Staggered sending caps delta_c at L: raising it further only delays
    blocks without reducing contention (Sec. 6.1), so the config-level
    bound ``delta * Z/N`` is clamped here.
    """
    m = _inputs_from_config(cfg, L=L)
    if algorithm in ("single", "multi"):
        b = 1 if algorithm == "single" else n_buffers
        tau, contended = multi_buffer_tau(m, b)
        mem_buffers = float(b)
        name = "single" if algorithm == "single" else f"multi({b})"
    elif algorithm == "tree":
        tau, contended = tree_tau(m)
        mem_buffers = tree_buffers_per_block(m.P)
        name = "tree"
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    bw = bandwidth_packets_per_cycle(m.K, tau, m.delta)
    q = queue_length(m, tau)
    in_pkts = input_buffer_packets(m, tau)
    latency = block_latency_cycles(m, tau)
    work_buffers = working_memory_buffers(m, tau, mem_buffers)
    bw_tbps = bw * m.packet_bytes * 8.0 * m.clock_ghz * 1e9 / 1e12
    return DesignPoint(
        algorithm=name,
        tau=tau,
        contended=contended,
        bandwidth_packets_per_cycle=bw,
        bandwidth_tbps=bw_tbps,
        queue_length=q,
        input_buffer_packets=in_pkts,
        input_buffer_bytes=in_pkts * m.packet_bytes,
        latency_cycles=latency,
        buffers_per_block=mem_buffers,
        working_buffers=work_buffers,
        working_memory_bytes=work_buffers * m.packet_bytes,
    )
