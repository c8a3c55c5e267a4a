"""Shared-fabric sessions: real contention, QoS arbitration, pooled
admission, and single-tenant parity across the refactor."""

import json

import numpy as np
import pytest

from repro.comm import (
    AdmissionError,
    CapabilityError,
    Communicator,
    Fabric,
    FabricError,
    wait_all,
)
from repro.core.allreduce import make_dense_blocks

#: An oversubscribed fat tree: 16 hosts, 2 leaves, ONE spine — every
#: cross-rack byte of every tenant squeezes through the same uplinks.
OVERSUB = dict(n_hosts=16, hosts_per_leaf=8, n_spines=1)
SIZE = "4MiB"


@pytest.fixture(scope="module")
def isolated_ring():
    comm = Communicator(**OVERSUB)
    return comm.allreduce(SIZE, algorithm="ring")


def _two_tenant_times(weight_a: float, weight_b: float):
    fabric = Fabric(**OVERSUB)
    a = fabric.communicator(name="A", weight=weight_a)
    b = fabric.communicator(name="B", weight=weight_b)
    ra, rb = wait_all([
        a.iallreduce(SIZE, algorithm="ring"),
        b.iallreduce(SIZE, algorithm="ring"),
    ])
    return ra, rb, fabric


# ----------------------------------------------------------------------
# Acceptance: contention is real and arbitrated
# ----------------------------------------------------------------------
def test_concurrent_allreduces_contend(isolated_ring):
    ra, rb, _ = _two_tenant_times(1.0, 1.0)
    # Sharing the oversubscribed fabric, each collective finishes
    # measurably slower than it does alone.
    assert ra.time_ns > 1.2 * isolated_ring.time_ns
    assert rb.time_ns > 1.2 * isolated_ring.time_ns
    # ... while moving exactly the same bytes.
    assert ra.traffic_bytes_hops == isolated_ring.traffic_bytes_hops
    assert rb.traffic_bytes_hops == isolated_ring.traffic_bytes_hops


def test_qos_weights_shift_completion_ratio():
    ra_eq, rb_eq, _ = _two_tenant_times(1.0, 1.0)
    ra_w, rb_w, _ = _two_tenant_times(4.0, 1.0)
    equal_ratio = ra_eq.time_ns / rb_eq.time_ns
    weighted_ratio = ra_w.time_ns / rb_w.time_ns
    # Weight 4 buys tenant A a markedly earlier finish relative to B.
    assert weighted_ratio < 0.9 * equal_ratio
    assert ra_w.time_ns < ra_eq.time_ns


def test_single_tenant_fabric_parity(isolated_ring):
    """One tenant on a fabric reproduces the standalone result exactly:
    same completion time, same bytes, same hop accounting."""
    fabric = Fabric(**OVERSUB)
    solo = fabric.communicator(name="solo")
    r = solo.iallreduce(SIZE, algorithm="ring").result()
    assert r.time_ns == isolated_ring.time_ns
    assert r.traffic_bytes_hops == isolated_ring.traffic_bytes_hops
    assert r.extra["max_link_bytes"] == isolated_ring.extra["max_link_bytes"]
    assert r.extra["hot_links"] == isolated_ring.extra["hot_links"]


def test_flare_switch_bitwise_parity_on_fabric():
    """On a fabric flare_switch is a tree schedule whose outputs are the
    numpy reduction bitwise (small-integer fp32 sums are exact in any
    order); standalone it stays the single-switch DES, unchanged."""
    for dtype in ("int32", "float32"):
        data = make_dense_blocks(8, 4, 256, dtype=dtype, seed=11)
        standalone = Communicator(n_hosts=8, n_clusters=1).allreduce(
            data, algorithm="flare_switch", seed=11
        )
        assert standalone.raw.makespan_cycles == 7991.948261077873
        fabric = Fabric(n_hosts=8)
        tenant = fabric.communicator(name="t", n_clusters=1)
        via_fabric = tenant.iallreduce(
            data, algorithm="flare_switch", seed=11
        ).result()
        out = via_fabric.extra["output"]
        assert out.dtype == data.dtype
        np.testing.assert_array_equal(out, data.sum(axis=0, dtype=data.dtype))


def test_flare_switch_without_a_tree_stays_standalone():
    """A payload that does not fit the wiring has no aggregation tree:
    blocking allreduce still runs the lone switch standalone, while
    issuing it raises the typed error on the implicit fabric, holding
    no slot, just as an explicit fabric does."""
    torus = dict(topology="torus",
                 topology_params=dict(dim_x=2, dim_y=2, hosts_per_switch=4))
    data = make_dense_blocks(8, 1, 256, dtype="int32", seed=3)
    comm = Communicator(**torus)
    standalone = comm.allreduce(data, algorithm="flare_switch")
    assert standalone.time_ns > 0
    with pytest.raises(CapabilityError, match="no aggregation tree"):
        comm.iallreduce(data, algorithm="flare_switch")
    assert comm.fabric.manager.utilization()["admitted"] == 0
    assert comm.fabric.in_flight == 0
    tenant = Fabric(**torus).communicator()
    with pytest.raises(CapabilityError, match="no aggregation tree"):
        tenant.iallreduce(data, algorithm="flare_switch")


def test_flare_switch_tree_contends_and_conserves_bytes():
    """A flare_switch tenant puts its tree on the wire: it slows a ring
    it overlaps, and the fabric's link counters hold both tenants'
    bytes, no more and no less."""
    alone = Fabric(n_hosts=16).communicator().allreduce(SIZE, algorithm="ring")
    fabric = Fabric(n_hosts=16)
    ring = fabric.communicator(name="ring")
    switch = fabric.communicator(name="switch")
    rr, rs = wait_all([
        ring.iallreduce(SIZE, algorithm="ring"),
        switch.iallreduce(SIZE, algorithm="flare_switch"),
    ])
    assert alone.time_ns == 740_517.4400000004
    assert rr.time_ns > alone.time_ns
    assert rs.traffic_bytes_hops > 0
    traffic = fabric.net.traffic
    assert traffic.bytes_hops == rr.traffic_bytes_hops + rs.traffic_bytes_hops
    assert sum(traffic.per_link.values()) == traffic.bytes_hops
    assert fabric.timeline()[1]["wire_bytes"] == rs.traffic_bytes_hops


def test_in_network_tenants_contend_too():
    solo = Communicator(**OVERSUB).allreduce(SIZE, algorithm="flare_dense")
    fabric = Fabric(**OVERSUB)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    ra, rb = wait_all([
        a.iallreduce(SIZE, algorithm="flare_dense"),
        b.iallreduce(SIZE, algorithm="flare_dense"),
    ])
    assert ra.time_ns > solo.time_ns
    assert rb.time_ns > solo.time_ns


# ----------------------------------------------------------------------
# Admission: pooled slots, memory, quotas, fallback
# ----------------------------------------------------------------------
def test_switch_slot_exhaustion_falls_back_to_host():
    fabric = Fabric(**OVERSUB, max_allreduces_per_switch=1)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    fa = a.iallreduce("1MiB", algorithm="flare_dense")
    fb = b.iallreduce("1MiB", algorithm="flare_dense")
    ra, rb = wait_all([fa, fb])
    assert ra.algorithm == "flare_dense"
    assert not ra.extra["fell_back"]
    # Flare's Sec. 4 failure mode: rejected -> host-based allreduce.
    assert rb.algorithm == "ring"
    assert rb.extra["fell_back"]
    events = fabric.timeline()
    assert events[1]["fell_back"] and "fall back" in events[1]["admission"]


def test_switch_memory_pool_admits_by_bytes():
    fabric = Fabric(**OVERSUB, switch_memory_bytes=3 * 2**20)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    ra, rb = wait_all([
        a.iallreduce("2MiB", algorithm="flare_dense"),
        b.iallreduce("2MiB", algorithm="flare_dense"),   # 4 MiB > pool
    ])
    assert not ra.extra["fell_back"]
    assert rb.extra["fell_back"] and rb.algorithm == "ring"


def test_slots_release_after_completion():
    fabric = Fabric(**OVERSUB, max_allreduces_per_switch=1)
    a = fabric.communicator(name="A")
    first = a.iallreduce("1MiB", algorithm="flare_dense").result()
    fabric.run()
    second = a.iallreduce("1MiB", algorithm="flare_dense").result()
    assert not first.extra["fell_back"] and not second.extra["fell_back"]


def test_tenant_quota_rejects_instead_of_falling_back():
    fabric = Fabric(**OVERSUB, tenant_quota=1)
    a = fabric.communicator(name="A")
    a.iallreduce("1MiB", algorithm="flare_dense")
    with pytest.raises(AdmissionError, match="quota"):
        a.iallreduce("1MiB", algorithm="flare_dense")


def test_no_fallback_raises():
    fabric = Fabric(**OVERSUB, max_allreduces_per_switch=1, fallback=False)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    a.iallreduce("1MiB", algorithm="flare_dense")
    with pytest.raises(AdmissionError, match="fall back"):
        b.iallreduce("1MiB", algorithm="flare_dense")


def test_fallback_without_a_communicator_raises_the_rejection():
    """A plan issued with no communicator has nothing to replan a
    host fallback with: when no re-rooted tree fits either, the
    original admission error raises, and nothing of the second issue
    stays in flight."""
    fabric = Fabric(n_hosts=8, max_allreduces_per_switch=1)
    plan = Communicator(n_hosts=8).plan(nbytes="1MiB", algorithm="flare_dense")
    first = fabric.issue(None, plan)
    with pytest.raises(AdmissionError, match="fall back"):
        fabric.issue(None, plan)
    assert fabric.in_flight == 1
    assert not first.result().extra["fell_back"]
    assert [e["status"] for e in fabric.timeline()] == ["done"]


# ----------------------------------------------------------------------
# Sessions & plumbing
# ----------------------------------------------------------------------
def test_duplicate_tenant_name_rejected():
    fabric = Fabric(n_hosts=8)
    fabric.communicator(name="same")
    with pytest.raises(FabricError, match="already attached"):
        fabric.communicator(name="same")


def test_attached_communicator_inherits_fabric_wiring():
    fabric = Fabric(n_hosts=8, routing="adaptive")
    t = fabric.communicator(name="t")
    assert t.n_hosts == 8
    assert t._defaults["routing"] == "adaptive"
    with pytest.raises(ValueError, match="inherits the fabric's topology"):
        Communicator(fabric=fabric, topology="dragonfly")


def test_shared_fabric_rejects_mismatched_plan_shape():
    from repro.network.topology import FatTreeTopology

    fabric = Fabric(n_hosts=8)          # default: 2 leaves of 4
    t = fabric.communicator(name="t")
    # Same host count at plan time, caught cheaply by request sizing:
    with pytest.raises(CapabilityError, match="size the topology"):
        t.iallreduce("64KiB", algorithm="ring", n_hosts=4)
    # Same host count, different wiring: caught by the issue-time guard.
    other = FatTreeTopology(n_hosts=8, hosts_per_leaf=2, n_spines=2)
    with pytest.raises(CapabilityError, match="fabric wires"):
        t.iallreduce("64KiB", algorithm="ring", topology=other)


def test_blocking_allreduce_on_shared_fabric_contends():
    fabric = Fabric(**OVERSUB)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    pending = b.iallreduce(SIZE, algorithm="ring")
    blocking = a.allreduce(SIZE, algorithm="ring")
    solo = Communicator(**OVERSUB).allreduce(SIZE, algorithm="ring")
    assert blocking.time_ns > solo.time_ns       # shared the wire with B
    assert pending.done()                        # the drive completed B too


def test_private_fabric_supports_per_call_topology_overrides():
    # A lone communicator's per-call shape that differs from its
    # defaults runs standalone when blocking; its private fabric does
    # not wire that shape, so issuing it raises like any fabric.
    comm = Communicator(n_hosts=16)
    r = comm.allreduce("64KiB", algorithm="ring", n_hosts=8)
    assert r.n_hosts == 8
    assert r.time_ns > 0
    with pytest.raises(CapabilityError, match="fabric wires"):
        comm.iallreduce("64KiB", algorithm="ring", n_hosts=8)
    assert comm.fabric.in_flight == 0


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
def test_timeline_records_per_tenant_trace():
    ra, rb, fabric = _two_tenant_times(2.0, 1.0)
    events = fabric.timeline()
    assert [e["tenant"] for e in events] == ["A", "B"]
    for e, r in zip(events, (ra, rb)):
        assert e["status"] == "done"
        assert e["duration_ns"] == r.time_ns
        assert e["finish_ns"] == e["start_ns"] + e["duration_ns"]
        assert e["wire_bytes"] == r.traffic_bytes_hops
        assert e["goodput_gbps"] == pytest.approx(
            e["nbytes"] * 8.0 / e["duration_ns"]
        )
        assert e["hot_links"]
    assert events[0]["weight"] == 2.0


def test_timeline_json_round_trips(tmp_path):
    _, _, fabric = _two_tenant_times(1.0, 1.0)
    path = tmp_path / "timeline.json"
    text = fabric.timeline_json(path=str(path))
    payload = json.loads(text)
    assert payload["events"] == json.loads(path.read_text())["events"]
    assert payload["tenants"] == ["A", "B"]
    assert payload["routing"] == "ecmp"
    assert payload["arbitration"] == "wfq"
    assert len(payload["events"]) == 2


def test_timeline_json_schema_version_leads_the_envelope():
    from repro.comm.fabric import TIMELINE_SCHEMA_VERSION

    _, _, fabric = _two_tenant_times(1.0, 1.0)
    payload = json.loads(fabric.timeline_json())
    assert payload["schema_version"] == TIMELINE_SCHEMA_VERSION == 3
    # Service-mode SLO snapshots reuse the same versioned envelope.
    from repro.service import SLOStats

    assert SLOStats({}).snapshot(0.0)["schema_version"] == TIMELINE_SCHEMA_VERSION


def test_tenant_stats_aggregate():
    _, _, fabric = _two_tenant_times(1.0, 1.0)
    stats = fabric.tenant_stats()
    assert set(stats) == {"A", "B"}
    for s in stats.values():
        assert s["collectives"] == s["completed"] == 1
        assert s["busy_ns"] > 0 and s["wire_bytes"] > 0
        assert isinstance(s["wire_bytes"], int)   # whole bytes, summed exactly


# ----------------------------------------------------------------------
# Review regressions
# ----------------------------------------------------------------------
def test_payload_collectives_fall_back_to_executing_algorithm():
    """A rejected in-network collective carrying real payloads must
    fall back to a host algorithm that actually reduces values."""
    data = make_dense_blocks(8, 2, 256, dtype="float32", seed=5).reshape(8, -1)
    fabric = Fabric(n_hosts=8, max_allreduces_per_switch=1)
    a = fabric.communicator(name="A", n_clusters=1)
    b = fabric.communicator(name="B", n_clusters=1)
    fa = a.iallreduce(data, algorithm="flare_switch")
    fb = b.iallreduce(data, algorithm="flare_switch")
    ra, rb = wait_all([fa, fb])
    assert ra.algorithm == "flare_switch"
    assert rb.algorithm == "rabenseifner" and rb.extra["fell_back"]
    np.testing.assert_allclose(rb.extra["output"], data.sum(axis=0), rtol=1e-5)


def test_payload_fallback_runs_on_the_wire():
    """The host fallback is a network schedule like any other: its
    bytes reach the fabric's link counters and its time is simulated
    under contention, not modeled."""
    data = make_dense_blocks(8, 16, 256, dtype="float32", seed=5).reshape(8, -1)
    fabric = Fabric(n_hosts=8, max_allreduces_per_switch=1)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    ra, rb = wait_all([
        a.iallreduce(data, algorithm="flare_dense"),
        b.iallreduce(data, algorithm="flare_dense"),
    ])
    assert ra.algorithm == "flare_dense"
    assert rb.algorithm == "rabenseifner" and rb.extra["fell_back"]
    traffic = fabric.net.traffic
    assert ra.traffic_bytes_hops == 327_680.0            # tenant A alone
    assert rb.traffic_bytes_hops > 0
    assert traffic.bytes_hops == ra.traffic_bytes_hops + rb.traffic_bytes_hops
    assert sum(traffic.per_link.values()) == traffic.bytes_hops
    entry = fabric.timeline()[1]
    assert entry["wire_bytes"] == rb.traffic_bytes_hops
    assert entry["finish_ns"] == entry["start_ns"] + rb.time_ns
    # Contended by tenant A, the fallback is slower than alone.
    alone = Fabric(n_hosts=8).communicator().allreduce(data, algorithm="rabenseifner")
    assert rb.time_ns > alone.time_ns
    np.testing.assert_array_equal(rb.extra["output"], data.sum(axis=0))


#: On a fabric, flare_switch_sparse is a sparse tree priced per switch.
SPARSE_SWITCH = dict(algorithm="flare_switch_sparse", sparse=True, density=0.1)


def test_sequential_sparse_switch_trees_release_slots():
    """issue -> result -> issue must not see the finished collective's
    switch slot still held."""
    fabric = Fabric(n_hosts=8, max_allreduces_per_switch=1)
    t = fabric.communicator(name="t", n_clusters=1)
    r1 = t.iallreduce("16KiB", **SPARSE_SWITCH).result()
    assert fabric.now > 0      # the tree ran on the fabric clock
    r2 = t.iallreduce("16KiB", **SPARSE_SWITCH).result()
    assert not r1.extra["fell_back"] and not r2.extra["fell_back"]
    assert r1.algorithm == r2.algorithm == "flare_switch_sparse"


def test_overlapped_sparse_switch_trees_contend_for_slots():
    fabric = Fabric(n_hosts=8, max_allreduces_per_switch=1)
    a = fabric.communicator(name="A", n_clusters=1)
    b = fabric.communicator(name="B", n_clusters=1)
    fa = a.iallreduce("16KiB", **SPARSE_SWITCH)
    fb = b.iallreduce("16KiB", **SPARSE_SWITCH)   # before result()
    ra, rb = wait_all([fa, fb])
    assert not ra.extra["fell_back"]
    assert rb.extra["fell_back"]       # pool was genuinely contended


def test_flare_switch_sparse_tree_contends_and_conserves_bytes():
    """A flare_switch_sparse tenant puts its sparse tree on the wire: it
    slows a ring it overlaps, and the fabric's link counters hold both
    tenants' bytes, no more and no less."""
    alone = Fabric(n_hosts=16).communicator().allreduce(SIZE, algorithm="ring")
    fabric = Fabric(n_hosts=16)
    ring = fabric.communicator(name="ring")
    sparse = fabric.communicator(name="sparse", n_clusters=1)
    rr, rs = wait_all([
        ring.iallreduce(SIZE, algorithm="ring"),
        sparse.iallreduce("256KiB", **SPARSE_SWITCH),
    ])
    assert rr.time_ns > alone.time_ns
    assert rs.traffic_bytes_hops > 0
    traffic = fabric.net.traffic
    assert traffic.bytes_hops == rr.traffic_bytes_hops + rs.traffic_bytes_hops
    assert fabric.timeline()[1]["wire_bytes"] == rs.traffic_bytes_hops


def test_generated_tenant_names_skip_explicit_ones():
    fabric = Fabric(n_hosts=8)
    fabric.communicator(name="tenant1")
    auto = fabric.communicator()       # must not collide with tenant1
    assert auto.name not in (None, "tenant1")
    assert set(fabric.tenants) == {"tenant1", auto.name}


def test_finished_flows_leave_no_link_queue_state():
    fabric = Fabric(**OVERSUB)
    a = fabric.communicator(name="A")
    b = fabric.communicator(name="B")
    wait_all([
        a.iallreduce("1MiB", algorithm="ring"),
        b.iallreduce("1MiB", algorithm="ring"),
    ])
    fabric.run()
    assert all(not q.heap for q in fabric.net._queues.values())
    assert all(not q.finish_tag for q in fabric.net._queues.values())
    assert not fabric.net._flow_weight
    assert not fabric.net._flow_traffic   # per-collective stats freed too
    # ... while the results kept their own traffic snapshots.
    assert fabric.timeline()[0]["wire_bytes"] > 0


def test_settled_collectives_leave_only_flow_none_callbacks():
    # Every schedule registers per-flow deliver callbacks; removing a
    # finished flow must drop exactly those, through the per-flow node
    # index, so a long-lived fabric keeps only flow-None registrations.
    fabric = Fabric(n_hosts=16)
    comms = [fabric.communicator(name=f"t{i}") for i in range(3)]
    kinds = [
        dict(algorithm="ring"), dict(algorithm="butterfly"),
        dict(algorithm="swing"), dict(algorithm="flare_dense"),
        dict(algorithm="sparcml", sparse=True, density=0.01),
        dict(algorithm="flare_sparse", sparse=True, density=0.01),
    ]
    futures = [
        comms[i % len(comms)].iallreduce("64KiB", **kind)
        for i, kind in enumerate(kinds * 2)
    ]
    wait_all(futures)
    fabric.run()
    assert len(fabric.timeline()) == len(futures)
    assert all(flow is None for _node, flow in fabric.net._deliver_cb)
    assert set(fabric.net._flow_nodes) <= {None}
