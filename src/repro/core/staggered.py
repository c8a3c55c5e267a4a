"""Staggered sending and arrival-stream synthesis (paper Sec. 5).

Hosts control one knob that matters enormously inside the switch: the
order in which they send their blocks.  If every host sends block 0
first, the switch receives P back-to-back packets of block 0
(delta_c = delta) and single-/multi-buffer handlers serialize on the
aggregation buffer.  *Staggered sending* has host h start at block
``h * blocks / P`` and wrap around, spreading each block's packets
across the host's whole sending window: delta_c approaches
``delta * Z/N`` (scenario C of Fig. 5).

This module builds the per-packet arrival schedules the switch-level
experiments inject: (time, host, block) triples, optionally jittered
with exponential interarrival noise the way the paper's simulations do
("we generate packets with a random and exponentially distributed
arrival rate").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rngtools import seeded_rng


@dataclass(frozen=True)
class ScheduledPacket:
    """One (time, host, block) arrival at the switch."""

    time: float
    host: int
    block: int


def sequential_schedule(n_hosts: int, n_blocks: int) -> list[tuple[int, int]]:
    """Naive order: every host sends block 0, then block 1, ...

    Returns per-host block orderings: entry ``[h][i]`` is the i-th block
    host h sends.
    """
    return [list(range(n_blocks)) for _ in range(n_hosts)]


def staggered_schedule(n_hosts: int, n_blocks: int) -> list[list[int]]:
    """Staggered order: host h starts at block ``round(h * Z/N / P)``.

    With n_blocks >= n_hosts each block's packets are maximally spread;
    with fewer blocks the achievable spread degrades proportionally
    ("if we would have only 2 blocks, the delta_c would be half", Sec. 5).
    """
    orders: list[list[int]] = []
    for h in range(n_hosts):
        offset = (h * n_blocks) // n_hosts
        orders.append([(offset + i) % n_blocks for i in range(n_blocks)])
    return orders


def arrival_arrays(
    n_hosts: int,
    n_blocks: int,
    delta: float,
    staggered: bool = True,
    jitter: float = 0.0,
    seed: int = 0,
    start: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized arrival synthesis: ``(times, hosts, blocks)`` arrays,
    sorted by ``(time, host)``.

    :func:`arrival_stream` is the per-packet object view of these
    arrays; the packet-train fast path injects them directly.
    """
    if n_hosts < 1 or n_blocks < 1:
        raise ValueError("need at least one host and one block")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if staggered:
        offsets = (np.arange(n_hosts) * n_blocks) // n_hosts
        orders = (offsets[:, None] + np.arange(n_blocks)[None, :]) % n_blocks
    else:
        orders = np.broadcast_to(np.arange(n_blocks), (n_hosts, n_blocks))
    # Host h's first packet lands at ``start + h * delta``.
    first = start + np.arange(n_hosts, dtype=np.float64)[:, None] * delta
    if jitter > 0:
        # One draw fills the rows in host order, the same stream the
        # per-host draws consumed; the row-wise cumsum is sequential.
        gaps = seeded_rng(seed).exponential(
            scale=n_hosts * delta, size=(n_hosts, n_blocks)
        )
        gaps = (1.0 - jitter) * (n_hosts * delta) + jitter * gaps
        times = first + np.cumsum(gaps, axis=1) - gaps[:, :1]
    else:
        times = first + np.arange(n_blocks) * (n_hosts * delta)
    hosts = np.repeat(np.arange(n_hosts), n_blocks)
    flat_times = times.reshape(-1)
    flat_blocks = orders.reshape(-1)
    order = np.lexsort((hosts, flat_times))
    return flat_times[order], hosts[order], flat_blocks[order]


def arrival_stream(
    n_hosts: int,
    n_blocks: int,
    delta: float,
    staggered: bool = True,
    jitter: float = 0.0,
    seed: int = 0,
    start: float = 0.0,
) -> list[ScheduledPacket]:
    """Synthesize the switch's ingress stream for one allreduce.

    Packets arrive at aggregate rate 1/delta; host h's k-th packet
    nominally lands at ``start + (k * n_hosts + h) * delta`` (hosts'
    streams interleave round-robin, each host injecting at its fair
    1/(P delta) share — the steady pattern of Fig. 5).

    ``jitter`` > 0 replaces the fixed spacing with exponential
    interarrival times of the same mean, scaled by ``jitter`` (1.0 =
    fully exponential), modeling host imbalance, OS noise, and network
    contention; the stream is then re-sorted by time.

    Returns the stream sorted by arrival time (a per-packet object view
    of :func:`arrival_arrays`).
    """
    times, hosts, blocks = arrival_arrays(
        n_hosts, n_blocks, delta,
        staggered=staggered, jitter=jitter, seed=seed, start=start,
    )
    return [
        ScheduledPacket(time=t, host=h, block=b)
        for t, h, b in zip(times.tolist(), hosts.tolist(), blocks.tolist())
    ]


def measured_delta_c(packets: list[ScheduledPacket], n_blocks: int) -> float:
    """Empirical mean intra-block interarrival of a stream (for tests).

    Averages consecutive gaps between packets of the same block.
    """
    by_block: dict[int, list[float]] = {}
    for p in packets:
        by_block.setdefault(p.block, []).append(p.time)
    gaps: list[float] = []
    for times in by_block.values():
        times.sort()
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    if not gaps:
        return 0.0
    return float(np.mean(gaps))
