#!/usr/bin/env python3
"""Hierarchical in-network aggregation across multiple switches (Fig. 1).

The paper's opening example: hosts spread over several switches build a
reduction tree — leaves aggregate their racks, the root aggregates the
leaves and multicasts the result back down.  On a ``Fabric``,
``flare_switch`` runs exactly that: the aggregation tree is planned over
the fabric, its chunks travel the shared links, and every tree switch
charges the processing time of the PsPIN switch model at its fan-in.
The example also shows how densification-aware placement would look
for sparse data: hash storage where data is sparse (leaves), array
storage where it has densified (root) — the Sec. 7 guidance.

Run:  python examples/hierarchical_fabric.py
"""

import numpy as np

from repro.comm import Fabric
from repro.sparse.densify import densification_profile

#: 4 leaf switches x 8 hosts, two spines (so ECMP has paths to choose).
SHAPE = dict(n_hosts=32, hosts_per_leaf=8, n_spines=2)


def allreduce(data: np.ndarray, routing_seed: int):
    fabric = Fabric(**SHAPE, routing_seed=routing_seed)
    comm = fabric.communicator(name="train", n_clusters=2)
    result = comm.allreduce(data, algorithm="flare_switch")
    return result, fabric


def dense_hierarchy() -> None:
    print("flare_switch on a two-level fat tree: 4 leaves x 8 hosts -> spine\n")
    data = np.random.default_rng(1).integers(0, 7, size=(32, 16 * 256))
    data = data.astype(np.int32)
    result, fabric = allreduce(data, routing_seed=0)
    assert np.array_equal(result.extra["output"], data.sum(axis=0, dtype=np.int32))
    print(f"  tree root               : {result.extra['tree_root']}")
    print(f"  end-to-end time         : {result.time_ns:,.0f} ns")
    print(f"  wire bytes (all links)  : {fabric.net.traffic.bytes_hops:,.0f} B*hops")
    print("  per-switch PsPIN counters (one chunk each):")
    print(f"    {'switch':6s} {'packets_in':>10s} {'packets_out':>11s} "
          f"{'hpu_busy_cycles':>15s}")
    for switch, counters in result.extra["switch_counters"].items():
        print(f"    {switch:6s} {counters['packets_in']:10,.0f} "
              f"{counters['packets_out']:11,.0f} "
              f"{counters['hpu_busy_cycles']:15,.0f}")
    print("  numerics verified against numpy across all 32 hosts\n")


def reproducible_hierarchy() -> None:
    print("Reproducibility survives the hierarchy (two ECMP routing seeds):")
    data = np.random.default_rng(0).standard_normal((32, 4 * 256))
    data = data.astype(np.float32)
    outs = [allreduce(data, routing_seed=s)[0].extra["output"] for s in (7, 1234)]
    identical = np.array_equal(outs[0].view(np.uint32), outs[1].view(np.uint32))
    assert identical
    print(f"  bitwise identical fp32 results: {identical}\n")


def densification_guidance() -> None:
    print("Why the paper stores hash at leaves, array at the root (Sec. 7):")
    prof = densification_profile(span=512, nnz_per_host=1, fan_ins=[8, 8])
    labels = ["host data", "after leaf (8 hosts)", "after root (64 hosts)"]
    for label, nnz in zip(labels, prof):
        print(f"  {label:24s}: {nnz:6.1f} nnz per 512-element bucket "
              f"({nnz / 512:6.2%} dense)")
    print("  -> leaves see 0.2-1.5% density (hash wins: constant memory);")
    print("     the root sees ~12% (array wins: faster, memory affordable).")


def main() -> None:
    dense_hierarchy()
    reproducible_hierarchy()
    densification_guidance()


if __name__ == "__main__":
    main()
