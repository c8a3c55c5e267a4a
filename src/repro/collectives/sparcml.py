"""SparCML host-based sparse allreduce on the network simulator.

The Fig. 15 "Host-Based Sparse" baseline: SparCML's split allreduce
(SSAR) — recursive-halving reduce-scatter over the index space followed
by recursive-doubling allgather, with sparse (index, value) messages
whose sizes grow as the partial aggregates densify.  Like SparCML, a
message switches to dense representation when the sparse encoding would
exceed the dense bytes of its range.

Message sizes derive from the densification model
(:mod:`repro.sparse.densify`): after combining m hosts, a range holding
fraction f of the index space carries ``f * span * (1 - (1-p)^m)``
expected non-zeros.  The Fig. 15 driver feeds the bucket-top-1 profile
(span 512, one survivor per host per bucket).
"""

from __future__ import annotations

import math

from repro.collectives.schedule import (
    Completion,
    collective_result,
    repeated,
    resolve_hosts,
)
from repro.network.simulator import Message, NetworkSimulator
from repro.sparse.densify import expected_union

#: Sparse wire bytes per element (index + value).
SPARSE_ELEMENT_BYTES = 8
DENSE_ELEMENT_BYTES = 4


def sparcml_round_bytes(
    n_hosts: int,
    total_elements: float,
    bucket_span: int,
    nnz_per_bucket: float,
    dense_switch: bool = True,
) -> list[float]:
    """Per-round message sizes (bytes) for SSAR halving-doubling.

    Returns ``2 * log2(P)`` sizes: reduce-scatter rounds then allgather
    rounds.  ``total_elements`` is the dense vector length; sparsity
    follows the bucket model (``nnz_per_bucket`` survivors per
    ``bucket_span`` elements per host).
    """
    if n_hosts & (n_hosts - 1):
        raise ValueError("SSAR needs a power-of-two host count")
    k = int(math.log2(n_hosts))
    n_buckets = total_elements / bucket_span
    sizes: list[float] = []
    # Reduce-scatter (halving): before round r each rank has combined
    # 2^r hosts over a range fraction 2^-r; it ships half of that range.
    for r in range(k):
        union_per_bucket = expected_union(bucket_span, nnz_per_bucket, 2**r)
        nnz_in_range = n_buckets * union_per_bucket * (2.0 ** -r)
        ship = nnz_in_range / 2.0
        sparse_bytes = ship * SPARSE_ELEMENT_BYTES
        dense_bytes = total_elements * (2.0 ** -(r + 1)) * DENSE_ELEMENT_BYTES
        sizes.append(min(sparse_bytes, dense_bytes) if dense_switch else sparse_bytes)
    # Allgather (doubling): rank holds fully reduced fraction 2^r / P.
    final_union = expected_union(bucket_span, nnz_per_bucket, n_hosts)
    final_nnz = n_buckets * final_union
    for r in range(k):
        ship = final_nnz * (2.0**r) / n_hosts
        sparse_bytes = ship * SPARSE_ELEMENT_BYTES
        dense_bytes = total_elements * (2.0**r) / n_hosts * DENSE_ELEMENT_BYTES
        sizes.append(min(sparse_bytes, dense_bytes) if dense_switch else sparse_bytes)
    return sizes


def issue_sparcml_allreduce(
    net: NetworkSimulator,
    total_elements: float,
    round_bytes: list[float],
    *,
    host_reduce_bytes_per_ns: float = 2.5,
    flow: object = None,
    hosts=None,
    on_complete,
) -> None:
    """Issue one SSAR allreduce with per-round message sizes
    ``round_bytes`` (:func:`sparcml_round_bytes`) into a (possibly
    shared) simulator, with the issue semantics of
    :mod:`repro.collectives.schedule`.

    ``host_reduce_bytes_per_ns`` charges host-side sparse summation per
    received byte during the reduce-scatter rounds (default 2.5 B/ns ~
    2.5 GB/s): merging sparse (index, value) streams is CPU-bound in
    SparCML's own evaluation, unlike the streaming dense adds of the
    ring, so it is *not* defaulted to free.  Allgather rounds only copy
    and are not charged.

    ``hosts`` restricts the exchange to a participant subset in the
    given order (placement); must still be a power of two.  Default:
    every topology host in id order.

    A rank sends round r+1 as soon as *its round r* has landed, even
    when an earlier round is still in flight, so a rank can run ahead of
    its own rounds; the schedule tables of
    :mod:`repro.collectives.schedule` process steps strictly in order.
    """
    hosts = resolve_hosts(net.topology, hosts)
    P = len(hosts)
    base_time = net.now
    k = len(round_bytes) // 2
    #: Pairwise exchange distances: halving P/2..1, then doubling 1..P/2.
    distances = [P >> (r + 1) for r in range(k)] + [1 << r for r in range(k)]
    total_rounds = len(round_bytes)

    #: Pipeline granularity: rounds are cut into sub-chunks so a large
    #: round message does not pay full store-and-forward serialization
    #: per hop; the *round barrier* stays (next round's content derives
    #: from the merged data, so it cannot start early).
    sub_chunk_bytes = 128 * 1024.0

    subs_received: dict[tuple[str, int], int] = {}
    done = Completion(P, base_time)
    seen: set = set()

    def send_round(i: int, rnd: int, at: float) -> None:
        partner = i ^ distances[rnd]
        n_sub = max(1, int(round(round_bytes[rnd] / sub_chunk_bytes)))
        sub_bytes = round_bytes[rnd] / n_sub
        # One burst event per round's sub-chunk train (same timing as
        # per-message events, issued back-to-back at one instant).
        net.send_burst(
            [
                Message(
                    hosts[i], hosts[partner], sub_bytes,
                    tag=("ssar", rnd, s, n_sub), flow=flow,
                )
                for s in range(n_sub)
            ],
            at=at,
        )

    def on_deliver(msg: Message, now: float) -> None:
        _kind, rnd, sub, n_sub = msg.tag
        receiver = msg.dst
        if repeated(net, seen, (receiver, rnd, sub)):
            return
        key = (receiver, rnd)
        subs_received[key] = subs_received.get(key, 0) + 1
        if subs_received[key] < n_sub:
            return
        compute = 0.0
        if host_reduce_bytes_per_ns > 0 and rnd < k:
            compute = round_bytes[rnd] / host_reduce_bytes_per_ns
        if rnd + 1 < total_rounds:
            send_round(rank_of[receiver], rnd + 1, now + compute)
        elif done.host_done(now + compute):
            on_complete(collective_result(
                net, flow, "host-sparse (SparCML)", P,
                total_elements * DENSE_ELEMENT_BYTES, done.finish - base_time,
                sum(round_bytes), {"round_bytes": round_bytes},
            ))

    rank_of = {h: i for i, h in enumerate(hosts)}
    for h in hosts:
        net.on_deliver(h, on_deliver, flow=flow)
    for i in range(P):
        send_round(i, 0, base_time)
