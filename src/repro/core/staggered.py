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
experiments inject: (time, host, block) arrays, optionally jittered
with exponential interarrival noise the way the paper's simulations do
("we generate packets with a random and exponentially distributed
arrival rate").
"""

from __future__ import annotations

import numpy as np

from repro.utils.rngtools import seeded_rng


def arrival_arrays(
    n_hosts: int,
    n_blocks: int,
    delta: float,
    staggered: bool = True,
    jitter: float = 0.0,
    seed: int = 0,
    start: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthesize the switch's ingress stream for one allreduce:
    ``(times, hosts, blocks)`` arrays, one entry per packet, sorted by
    ``(time, host)``.

    Packets arrive at aggregate rate 1/delta; host h's k-th packet
    nominally lands at ``start + (k * n_hosts + h) * delta`` (hosts'
    streams interleave round-robin, each host injecting at its fair
    1/(P delta) share — the steady pattern of Fig. 5).  Host h sends
    its blocks in order from block 0, or, ``staggered``, from block
    ``h * n_blocks // n_hosts`` wrapping around; with fewer blocks than
    hosts the achievable spread degrades proportionally ("if we would
    have only 2 blocks, the delta_c would be half", Sec. 5).

    ``jitter`` in (0, 1] replaces the fixed spacing with a mix of
    interarrival times of the same mean: ``1 - jitter`` of the fixed gap
    plus ``jitter`` times an exponential one (1.0 = fully exponential),
    modeling host imbalance, OS noise, and network contention.  The
    packet-train fast paths inject the arrays directly.
    """
    if n_hosts < 1 or n_blocks < 1:
        raise ValueError("need at least one host and one block")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 <= jitter <= 1.0:      # above 1 a gap's fixed part is negative
        raise ValueError(f"jitter must be in [0, 1], got {jitter!r}")
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
