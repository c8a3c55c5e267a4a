"""Tests for the network-simulated collective schedules (Fig. 15
machinery) at reduced scale."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.collectives.schedule import sparcml_round_bytes, sparse_tree, whole_bytes
from repro.comm import Communicator
from repro.network.topology import FatTreeTopology
from repro.network.trees import TreePlanner
from repro.utils.units import MIB


def _topo(n_hosts=16, hosts_per_leaf=4, n_spines=2):
    return FatTreeTopology(n_hosts=n_hosts, hosts_per_leaf=hosts_per_leaf,
                           n_spines=n_spines)


def _run(algorithm, topo, nbytes, **params):
    """One standalone run of ``algorithm`` on ``topo``."""
    return Communicator(topology=topo).allreduce(nbytes, algorithm=algorithm, **params)


def _sparse(algorithm, topo, total_elements, **params):
    return _run(algorithm, topo, total_elements * 4, sparse=True, **params)


def test_ring_time_close_to_bandwidth_bound():
    """Pipelined ring ~ 2 Z (P-1)/P / link_rate."""
    Z = 16 * MIB
    r = _run("ring", _topo(), Z)
    bound_ns = 2 * Z * 15 / 16 / 12.5
    assert bound_ns <= r.time_ns <= 1.35 * bound_ns


def test_ring_traffic_scales_with_hops():
    Z = 4 * MIB
    r = _run("ring", _topo(), Z)
    # 2(P-1) steps x P segments; intra-rack hops = 2, one cross-rack
    # edge per rack boundary = 4 hops.
    seg = Z / 16
    steps = 2 * 15
    expected = seg * steps * (12 * 2 + 4 * 4)
    assert r.traffic_bytes_hops == pytest.approx(expected, rel=0.01)


def test_flare_dense_halves_ring_traffic_and_time():
    Z = 16 * MIB
    ring = _run("ring", _topo(), Z)
    flare = _run("flare_dense", _topo(), Z, chunk_bytes=256 * 1024)
    assert flare.time_ns < 0.7 * ring.time_ns
    assert flare.traffic_bytes_hops < 0.7 * ring.traffic_bytes_hops


def test_flare_dense_traffic_exact():
    """Every host sends Z up (1 hop) + leaf->root (1) + root->leaf (1)
    + leaf->host (1): Z*(hosts*2 + leaves*2) bytes-hops."""
    Z = 4 * MIB
    t = _topo()
    r = _run("flare_dense", t, Z, chunk_bytes=MIB)
    expected = Z * (16 + 4 + 4 + 16)
    assert r.traffic_bytes_hops == pytest.approx(expected, rel=0.01)


def test_sparcml_round_sizes_shrink_then_grow():
    sizes = sparcml_round_bytes(16, total_elements=1e6, bucket_span=512,
                                nnz_per_bucket=1.0)
    k = len(sizes) // 2
    assert len(sizes) == 2 * int(math.log2(16))
    # Allgather sizes double each round.
    ag = sizes[k:]
    for a, b in zip(ag, ag[1:]):
        assert b == pytest.approx(2 * a, rel=0.01)


def test_sparcml_dense_switch_caps_sizes():
    # Dense bytes of the range each step ships: half the rank's range per
    # reduce-scatter step, then the doubling allgather ranges.
    dense = ([4e6 / 2 ** (r + 1) for r in range(4)]
             + [4e6 * 2**r / 16 for r in range(4)])
    sparse = sparcml_round_bytes(16, 1e6, 512, 1.0)
    assert all(s <= d for s, d in zip(sparse, dense))
    assert sparse[0] < dense[0]             # one survivor per bucket: sparse
    # With 400/512 survivors the sparse encoding (8 B) always exceeds
    # dense (4 B), so every round must be exactly its dense range.
    assert sparcml_round_bytes(16, 1e6, 512, 400.0) == dense


def _carried(sizes, n_sub) -> list:
    """Step bytes as carried: each sub-chunk of the model's step size
    rounded up to whole bytes."""
    return [n * whole_bytes(b, n) for b, n in zip(sizes, n_sub)]


def test_sparcml_completes_and_reports():
    r = _sparse("sparcml", _topo(), 2**20)
    assert r.time_ns > 0
    assert r.extra["steps"] == 8
    assert len(r.extra["sub_chunks"]) == 8
    sizes = sparcml_round_bytes(16, 2**20)
    assert list(r.extra["step_bytes"]) == _carried(sizes, r.extra["sub_chunks"])
    assert r.sent_bytes_per_host == sum(r.extra["step_bytes"])
    assert r.traffic_bytes_hops > 0


def test_whole_bytes_rounds_up_only_fractions():
    assert whole_bytes(1234.56) == 1235
    assert whole_bytes(4096.0, 4) == 1024
    assert type(whole_bytes(4096.0, 4)) is int
    assert whole_bytes(10, 3) == 4
    # Exact arithmetic, past float precision too.
    assert whole_bytes(Fraction(10**20 + 1, 3) * 3) == 10**20 + 1
    assert whole_bytes(10**20 + 1, 10**20) == 2


def _sparcml_plan(topo, total_elements, **params):
    return Communicator(topology=topo).plan(
        nbytes=total_elements * 4, algorithm="sparcml", sparse=True, **params
    )


def test_sparcml_table_shape():
    """SSAR is the rabenseifner table: step k pairs rank i with
    ``i ^ d_k``, d = P/2 ... 1 then 1 ... P/2, at the sparse model's
    bytes; it is size-only."""
    from repro.comm.plan import IssueContext
    from repro.network.simulator import NetworkSimulator

    topo = _topo()
    P, elements = 16, float(2**20)
    plan = _sparcml_plan(topo, elements, sub_chunk_bytes=4096)
    sizes = sparcml_round_bytes(P, elements)
    assert plan.setup["sub_chunks"] == tuple(
        max(1, round(b / 4096)) for b in sizes
    )
    assert list(plan.setup["step_bytes"]) == _carried(sizes, plan.setup["sub_chunks"])
    net = NetworkSimulator(topo)
    rank = {h: i for i, h in enumerate(topo.hosts)}
    sent: dict = {}
    send_burst = net.send_burst

    def burst(msgs, at=0.0):
        for m in msgs:
            sent.setdefault(m.tag[1], set()).add((rank[m.src], rank[m.dst]))
        send_burst(msgs, at)

    net.send_burst = burst
    done = []
    plan.issue(IssueContext(net=net, flow=None, finish=done.append))
    net.run()
    assert done and done[0].name == "host-sparse (SparCML)"
    distances = [P >> (s + 1) for s in range(4)] + [1 << s for s in range(4)]
    for k, d in enumerate(distances):
        assert sent[k] == {(i, i ^ d) for i in range(P)}, k
    with pytest.raises(ValueError, match="size-only"):
        _sparcml_plan(topo, 1024).execute(np.zeros((P, 1024), np.float32))


def test_sparcml_needs_power_of_two():
    with pytest.raises(ValueError):
        sparcml_round_bytes(12, 1e6, 512, 1.0)


def test_flare_sparse_beats_sparcml_and_dense():
    """The headline Fig. 15 ordering at small scale."""
    t = _topo
    elements = float(2**22)   # 16 MiB dense
    dense = _run("flare_dense", t(), elements * 4, chunk_bytes=256 * 1024)
    sparcml = _sparse("sparcml", t(), elements)
    sparse = _sparse("flare_sparse", t(), elements)
    assert sparse.time_ns < sparcml.time_ns
    assert sparse.time_ns < dense.time_ns
    assert sparse.traffic_bytes_hops < sparcml.traffic_bytes_hops
    assert sparse.traffic_bytes_hops < dense.traffic_bytes_hops


def test_flare_sparse_level_bytes_densify():
    r = _sparse("flare_sparse", _topo(), float(2**22))
    assert r.extra["host_bytes"] < r.extra["leaf_bytes"] < r.extra["root_bytes"]


def test_sparse_tree_cuts_packet_sized_chunks():
    """With no ``n_chunks`` a sparse tree cuts its largest stream into as
    many 1 KiB packets as it holds, 1 to 64; an explicit count wins."""
    comm = Communicator(n_hosts=16)
    chunks = [
        comm.allreduce(kib * 1024, algorithm="flare_sparse", sparse=True)
        .extra["n_chunks"]
        for kib in (16, 64, 256)
    ]
    assert chunks == [1, 3, 15]
    tree = TreePlanner(_topo()).plan()
    for total_elements in (2**12, 2**16, 2**18, 2**20, 2**22, 2**24):
        schedule = sparse_tree(tree, total_elements)
        n = schedule.n_chunks
        largest = max(schedule.host_chunk, *schedule.up_chunk.values())
        assert 1 <= n <= 64
        if n > 1:
            assert largest >= 1024, (total_elements, n, largest)
        if n < 64:                  # one more chunk would cut under a packet
            assert largest * n < (n + 1) * 1024, (total_elements, n, largest)
    for n in (1, 8, 100):
        r = comm.allreduce(
            256 * 1024, algorithm="flare_sparse", sparse=True, n_chunks=n
        )
        assert r.extra["n_chunks"] == n


@pytest.mark.parametrize(
    "algorithm, knob, value",
    [
        ("flare_sparse", "n_chunks", 0),
        ("flare_sparse", "n_chunks", -2),
        ("flare_sparse", "n_chunks", 2.5),
        ("flare_sparse", "n_chunks", True),
        ("flare_dense", "chunk_bytes", 0),
        ("flare_dense", "chunk_bytes", -5),
        ("flare_dense", "chunk_bytes", math.inf),
        ("flare_dense", "chunk_bytes", math.nan),
        ("ring", "sub_chunk_bytes", 0),
        ("ring", "sub_chunk_bytes", -5),
        ("ring", "sub_chunk_bytes", math.inf),
        ("ring", "sub_chunk_bytes", math.nan),
    ],
)
def test_bad_chunk_knobs_rejected_at_plan_time(algorithm, knob, value):
    comm = Communicator(n_hosts=16)
    with pytest.raises(ValueError, match=knob):
        comm.plan(nbytes="64KiB", algorithm=algorithm,
                  sparse=algorithm == "flare_sparse", **{knob: value})


def test_embed_reduction_tree():
    t = _topo()
    tree = TreePlanner(t).plan(root="s1")
    assert tree.root == "s1"
    assert len(tree.children_of["s1"]) == 4
    assert [tree.fan_in(s) for s in ("l0", "s1")] == [4, 4]
    assert len(tree.all_hosts()) == 16
    with pytest.raises(ValueError):
        TreePlanner(t).plan(root="s9")


def test_tree_root_is_honoured_on_the_fat_tree():
    """``tree_root`` roots the planned tree on the fat tree too; the
    default stays the classic spine-s0 embedding."""
    comm = Communicator(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    default = comm.plan(nbytes="1MiB", algorithm="flare_dense")
    rooted = comm.plan(nbytes="1MiB", algorithm="flare_dense", tree_root="s1")
    assert default.setup["tree_switches"] == ["s0", "l0", "l1", "l2", "l3"]
    assert rooted.setup["tree_root"] == "s1"
    assert rooted.setup["tree_switches"] == ["s1", "l0", "l1", "l2", "l3"]
    with pytest.raises(ValueError, match="not an aggregation-capable"):
        comm.plan(nbytes="1MiB", algorithm="flare_dense", tree_root="h0")


def _sparcml_early_sends(faults=None):
    """Run SparCML on a 64-host fat tree at 2^24 elements and list the
    (rank, step) sends that left before every earlier step landed."""
    from repro.comm.plan import IssueContext
    from repro.network.faults import FaultSchedule
    from repro.network.simulator import NetworkSimulator

    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    plan = _sparcml_plan(topo, float(2**24))
    n_sub = plan.setup["sub_chunks"]
    net = NetworkSimulator(topo)
    if faults is not None:
        schedule = FaultSchedule.from_any(faults)
        net.arm_faults(schedule, seed=schedule.seed)
    #: Distinct (dst, step, sub) deliveries: a duplicate counts once.
    landed: set = set()
    completed = {h: set() for h in topo.hosts}
    early = []
    send_burst, on_deliver = net.send_burst, net.on_deliver

    def burst(msgs, at=0.0):
        for m in msgs:
            if not completed[m.src].issuperset(range(m.tag[1])):
                early.append((m.src, m.tag[1]))
        send_burst(msgs, at)

    def register(node, callback, flow=None):
        def deliver(msg, now):
            _name, k, sub = msg.tag
            if (msg.dst, k, sub) not in landed:
                landed.add((msg.dst, k, sub))
                if sum((msg.dst, k, s) in landed for s in range(n_sub[k])) == n_sub[k]:
                    completed[msg.dst].add(k)
            callback(msg, now)

        on_deliver(node, deliver, flow)

    net.send_burst, net.on_deliver = burst, register
    done = []
    plan.issue(IssueContext(net=net, flow=None, finish=done.append))
    net.run()
    assert len(done) == 1
    return done[0], early


def test_sparcml_sends_round_only_after_every_earlier_round():
    """No rank may send round r+1 before it completed rounds 0..r: the
    next round's content derives from the merged data of all of them."""
    _result, early = _sparcml_early_sends()
    assert early == []


def test_sparcml_round_order_holds_under_loss():
    """Drops and duplicates must not let a rank run ahead either: a
    retransmitted sub-chunk holds back every later step of its rank."""
    from tests.collectives.test_schedule_golden import LOSSY

    result, early = _sparcml_early_sends(LOSSY)
    assert result.extra["drops"] > 0 and result.extra["duplicates"] > 0
    assert early == []
