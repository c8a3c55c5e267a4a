"""Multi-switch (hierarchical) in-network allreduce (paper Fig. 1).

Composes several PsPIN behavioral switches into the paper's recursive
aggregation: every switch on an aggregation tree aggregates its
directly attached hosts plus its child switches and forwards one
stream to its parent; the root aggregates and multicasts the fully
reduced data back down.  All switches share one discrete-event clock,
so end-to-end cycle counts compose, and the data path is exact — the
root's output is checked against the numpy golden sum over every host.

The tree comes from :class:`repro.network.trees.TreePlanner`, so the
same engine runs the classic two-level fat-tree shape
(:func:`run_two_level_allreduce`), a deep XGFT, or a BFS tree over a
dragonfly or torus (:func:`run_tree_allreduce`) — switch-level
behaviour across tree levels (e.g. sparse densification hitting the
root, Sec. 7's "hash at the leaves, array at the root" guidance) on
any wiring.  Use the chunk-level ``flare_dense`` tree schedule
(:mod:`repro.collectives.schedule`) instead for end-to-end times at
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.manager import NetworkManager
from repro.core.ops import get_op
from repro.core.staggered import arrival_stream
from repro.network.topology import FatTreeTopology, Topology
from repro.network.trees import AggregationTree, TreePlanner, as_aggregation_tree
from repro.pspin.costs import CostModel
from repro.pspin.engine import Simulator
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch, SwitchConfig


@dataclass
class TreeAllreduceResult:
    """Outcome of an in-network allreduce over an aggregation tree."""

    makespan_cycles: float
    blocks_completed: int
    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    uplink_packets: int = 0          # child-switch -> parent aggregates
    root_egress_packets: int = 0
    tree: AggregationTree = None
    n_switches: int = 0


@dataclass
class TwoLevelResult:
    """Outcome of a two-level in-network allreduce (legacy shape)."""

    makespan_cycles: float
    blocks_completed: int
    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    leaf_egress_packets: int = 0
    root_egress_packets: int = 0


def run_tree_allreduce(
    topology: Topology | None = None,
    tree: AggregationTree | None = None,
    root: str | None = None,
    n_blocks: int = 8,
    elements_per_packet: int = 256,
    dtype: str = "float32",
    algorithm: str | None = None,
    reproducible: bool = False,
    op: str = "sum",
    n_clusters: int = 2,
    inter_switch_latency: float = 500.0,
    seed: int = 0,
    data: np.ndarray | None = None,
    verify: bool = True,
) -> TreeAllreduceResult:
    """Aggregate across the switches of an aggregation tree, end to end.

    Provide ``topology`` (the tree is planned, optionally rooted at
    ``root``) or a prebuilt ``tree``.  ``data`` has shape
    (n_hosts, n_blocks, elements) with hosts in ``tree.all_hosts()``
    order; random integers when omitted.  The root multicasts the
    result to its children; we capture one copy per block for
    verification.
    """
    if tree is None:
        if topology is None:
            raise ValueError("need a topology or a prebuilt tree")
        tree = TreePlanner(topology).plan(root=root)
    elif topology is not None:
        tree = as_aggregation_tree(tree, topology)
    hosts = tree.all_hosts()
    n_hosts = len(hosts)
    if data is None:
        rng = np.random.default_rng(seed)
        data = rng.integers(
            0, 7, size=(n_hosts, n_blocks, elements_per_packet)
        ).astype(dtype)

    sim = Simulator()
    cost_model = CostModel()

    def mk() -> PsPINSwitch:
        return PsPINSwitch(
            SwitchConfig(n_clusters=n_clusters, cost_model=cost_model), sim=sim
        )

    # Integer switch ids: root is 0, the rest follow tree BFS order —
    # for the two-level fat-tree shape this reproduces the historical
    # numbering (root 0, leaves 1..n) and its per-leaf stream seeds.
    tree_switches = tree.switches()
    id_of = {name: i for i, name in enumerate(tree_switches)}
    switches: dict[int, PsPINSwitch] = {i: mk() for i in range(len(tree_switches))}
    root_switch = switches[0]

    # Per-switch ordered children: attached hosts first, then child
    # switches; the position is the ingress port.
    def ordered_children(name: str) -> list[str]:
        return list(tree.hosts_of.get(name, ())) + list(
            tree.children_of.get(name, ())
        )

    manager = NetworkManager()
    rtree = manager.tree_from_aggregation(tree, id_of)
    installed = manager.install(
        rtree,
        switches,
        data_bytes=n_blocks * elements_per_packet * data.dtype.itemsize,
        dtype_name=dtype,
        reproducible=reproducible,
        op=get_op(op),
        algorithm=algorithm,
    )
    allreduce_id = installed.allreduce_id

    # Wire every child switch's egress into its parent: the child's
    # aggregate for block b arrives on the port matching its position
    # among the parent's children.
    uplink_counter = {"packets": 0}

    def make_uplink(parent: PsPINSwitch, port: int):
        def uplink(time: float, packet: SwitchPacket) -> None:
            uplink_counter["packets"] += 1
            parent.inject(
                SwitchPacket(
                    allreduce_id=allreduce_id,
                    block_id=packet.block_id,
                    port=port,
                    payload=packet.payload,
                ),
                at=time + inter_switch_latency,
            )

        return uplink

    for name in tree_switches:
        parent_name = tree.parent_of(name)
        if parent_name is None:
            continue
        port = ordered_children(parent_name).index(name)
        switches[id_of[name]].egress_callback = make_uplink(
            switches[id_of[parent_name]], port
        )

    # Hosts inject into their attach switch, staggered per switch.
    row_of = {h: i for i, h in enumerate(hosts)}
    delta = SwitchConfig(n_clusters=n_clusters).packet_interarrival_cycles(
        elements_per_packet * data.dtype.itemsize
    ) * (64 / n_clusters)
    for name in tree_switches:
        attached = tree.hosts_of.get(name, ())
        if not attached:
            continue
        stream = arrival_stream(
            n_hosts=len(attached), n_blocks=n_blocks, delta=delta,
            staggered=True, jitter=1.0, seed=seed + id_of[name],
        )
        for sp in stream:
            switches[id_of[name]].inject(
                SwitchPacket(
                    allreduce_id=allreduce_id,
                    block_id=sp.block,
                    port=sp.host,
                    payload=data[row_of[attached[sp.host]], sp.block],
                ),
                at=sp.time,
            )

    sim.run()
    makespan = sim.now

    outputs: dict[int, np.ndarray] = {}
    for _t, pkt in root_switch.egress:
        outputs.setdefault(pkt.block_id, pkt.payload)
    if verify:
        operator = get_op(op)
        for b in range(n_blocks):
            golden = data[0, b].copy()
            for h in range(1, n_hosts):
                operator.combine_into(golden, data[h, b])
            got = outputs.get(b)
            if got is None:
                raise AssertionError(f"block {b} never reached the root")
            if np.issubdtype(golden.dtype, np.integer):
                assert np.array_equal(got, golden), f"block {b} mismatch"
            else:
                assert np.allclose(got, golden, rtol=1e-5), f"block {b} mismatch"

    root_handler_name = None
    for name in ("flare-single", "flare-multi2", "flare-multi4", "flare-tree"):
        if name in root_switch._handlers:
            root_handler_name = name
            break
    blocks_done = (
        root_switch.handler(root_handler_name).blocks_completed
        if root_handler_name
        else 0
    )
    return TreeAllreduceResult(
        makespan_cycles=makespan,
        blocks_completed=blocks_done,
        outputs=outputs,
        uplink_packets=uplink_counter["packets"],
        root_egress_packets=len(root_switch.egress),
        tree=tree,
        n_switches=len(tree_switches),
    )


def run_two_level_allreduce(
    n_leaves: int = 4,
    hosts_per_leaf: int = 8,
    n_blocks: int = 8,
    elements_per_packet: int = 256,
    dtype: str = "float32",
    algorithm: str | None = None,
    reproducible: bool = False,
    op: str = "sum",
    n_clusters: int = 2,
    inter_switch_latency: float = 500.0,
    seed: int = 0,
    data: np.ndarray | None = None,
    verify: bool = True,
) -> TwoLevelResult:
    """The classic shape: leaves aggregate their racks, one root
    aggregates the leaves (now a thin wrapper over the tree engine)."""
    topology = FatTreeTopology(
        n_hosts=n_leaves * hosts_per_leaf,
        hosts_per_leaf=hosts_per_leaf,
        n_spines=1,
    )
    r = run_tree_allreduce(
        topology=topology,
        n_blocks=n_blocks,
        elements_per_packet=elements_per_packet,
        dtype=dtype,
        algorithm=algorithm,
        reproducible=reproducible,
        op=op,
        n_clusters=n_clusters,
        inter_switch_latency=inter_switch_latency,
        seed=seed,
        data=data,
        verify=verify,
    )
    return TwoLevelResult(
        makespan_cycles=r.makespan_cycles,
        blocks_completed=r.blocks_completed,
        outputs=r.outputs,
        leaf_egress_packets=r.uplink_packets,
        root_egress_packets=r.root_egress_packets,
    )
