"""Densification analytics (paper Sec. 7).

"In general, sparse data get denser after each aggregation and, when
aggregating data on an in-network reduction tree, the data get denser
while traveling from the hosts to the root of the tree."

These closed forms size buffers, predict traffic, and drive the
network-level sparse collectives: if each of m hosts independently
populates each position of a span-s block with probability p = nnz/s,
the aggregate block's expected non-zero count is

    E|union(m)| = s * (1 - (1 - p)^m)

which starts ~m * nnz and saturates at the span.  The bucket-top-1
sparsification used for Fig. 15 (one survivor per 512-element bucket)
is the special case nnz=1, s=512 applied per bucket.
"""

from __future__ import annotations

#: Wire bytes per element: a sparse (int32 index, 4-byte value) pair,
#: and a dense fp32 value.
SPARSE_ELEMENT_BYTES = 8
DENSE_ELEMENT_BYTES = 4


def expected_union(span: int, nnz_per_host: float, n_hosts: int) -> float:
    """Expected distinct non-zero positions after aggregating n_hosts.

    Assumes independent uniform positions per host (the conservative,
    fastest-densifying case; correlated top-k selections densify less).

    >>> round(expected_union(512, 1, 64), 1)
    60.2
    """
    if span <= 0:
        raise ValueError("span must be positive")
    if nnz_per_host < 0 or nnz_per_host > span:
        raise ValueError("nnz_per_host must be in [0, span]")
    if n_hosts < 0:
        raise ValueError("n_hosts must be >= 0")
    p = nnz_per_host / span
    return span * (1.0 - (1.0 - p) ** n_hosts)


def densification_profile(
    span: int, nnz_per_host: float, fan_ins: list[int]
) -> list[float]:
    """Expected nnz after each level of a reduction tree.

    ``fan_ins`` lists the child counts level by level from the hosts up
    (e.g. [8, 8] for 8 hosts per leaf switch and 8 leaves under the
    root).  Returns expected per-block nnz entering each level's output,
    host data first.

    >>> prof = densification_profile(512, 1, [8, 8])
    >>> [round(x, 1) for x in prof]
    [1.0, 7.9, 60.2]
    """
    out = [float(nnz_per_host)]
    hosts_so_far = 1
    for fan in fan_ins:
        if fan < 1:
            raise ValueError("fan-in must be >= 1")
        hosts_so_far *= fan
        out.append(expected_union(span, nnz_per_host, hosts_so_far))
    return out


def density_after(span: int, nnz_per_host: float, n_hosts: int) -> float:
    """Aggregate density (fraction non-zero) after n_hosts combine."""
    return expected_union(span, nnz_per_host, n_hosts) / span


def expected_hash_collision_fraction(
    distinct_keys: float, n_slots: int
) -> float:
    """Fraction of distinct keys that lose the single-probe slot race.

    With k distinct keys hashed into T slots, the expected number of
    occupied slots is T(1 - (1 - 1/T)^k); every key beyond those winners
    spills on *every* arrival.  Used to size hash tables and predict
    Fig. 14's extra-traffic panel.
    """
    if n_slots <= 0:
        raise ValueError("n_slots must be positive")
    if distinct_keys < 0:
        raise ValueError("distinct_keys must be >= 0")
    if distinct_keys == 0:
        return 0.0
    winners = n_slots * (1.0 - (1.0 - 1.0 / n_slots) ** distinct_keys)
    winners = min(winners, distinct_keys)
    return (distinct_keys - winners) / distinct_keys


def expected_spill_fraction(
    span: int, nnz_per_host: float, n_hosts: int, n_slots: int
) -> float:
    """Expected fraction of arriving elements that spill.

    Each element instance belongs to one distinct position; instances of
    slot-losing positions spill.  Positions are symmetric, so the
    instance-spill fraction equals the key-collision fraction.
    """
    distinct = expected_union(span, nnz_per_host, n_hosts)
    return expected_hash_collision_fraction(distinct, n_slots)
