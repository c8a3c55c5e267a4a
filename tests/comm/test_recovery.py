"""Fabric self-healing: mid-collective outages, re-rooted trees,
host-based fallbacks, and the recovery trace in timeline()/tenant_stats.

The fabric half of the reliability tentpole (link-level loss/retransmit
mechanics live in tests/network/test_faults.py).
"""

import numpy as np
import pytest

from repro.comm import Fabric, wait_all


def _payloads(n_hosts=8, n=512, dtype=np.int32, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(-8, 8, size=(n_hosts, n)).astype(dtype)
    return data, data.sum(axis=0, dtype=np.int64).astype(dtype)


def _assert_retired(fabric):
    """Run ``fabric`` to quiescence; every collective, recovered or
    failed, has then released its ticket, flow and callbacks."""
    fabric.run()
    assert fabric.in_flight == 0
    assert fabric.manager.utilization()["admitted"] == 0
    assert fabric.net._flow_weight == {}
    assert fabric.net._deliver_cb == {}


# ----------------------------------------------------------------------
# Canary-style re-root on a link outage
# ----------------------------------------------------------------------
def _link_down_recovers_and_traces(algorithm):
    fabric = Fabric(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    comm = fabric.communicator(name="train")
    future = comm.iallreduce("4MiB", algorithm=algorithm)
    fabric.inject(link="l0-s0", at=5_000.0, kind="down")
    result = future.result()
    recoveries = result.extra["recoveries"]
    assert len(recoveries) == 1
    assert recoveries[0]["cause"] == {"kind": "down", "link": "l0-s0"}
    assert recoveries[0]["to_algorithm"] == algorithm
    [entry] = fabric.timeline()
    assert entry["status"] == "done"
    assert entry["recoveries"] == recoveries
    assert fabric.tenant_stats()["train"]["recovered"] == 1
    # The replanned tree avoids the failed link.
    assert ("l0", "s0") not in fabric.topology.paths("h0", "h15")[0]
    _assert_retired(fabric)


def test_link_down_recovers_flare_dense_and_traces_it():
    _link_down_recovers_and_traces("flare_dense")


def test_link_down_recovers_flare_switch_and_traces_it():
    _link_down_recovers_and_traces("flare_switch")


def test_link_down_recovery_preserves_payload_bitwise():
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    comm = fabric.communicator(name="t")
    data, golden = _payloads()
    future = comm.iallreduce(data, algorithm="flare_dense")
    fabric.inject(link="l1-s0", at=2_000.0, kind="down")
    result = future.result()
    assert result.extra["recoveries"]
    np.testing.assert_array_equal(result.extra["output"], golden)


def test_unrelated_link_down_does_not_replan():
    fabric = Fabric(n_hosts=16, hosts_per_leaf=4, n_spines=4)
    comm = fabric.communicator(name="t")
    future = comm.iallreduce("2MiB", algorithm="flare_dense")
    # The fat-tree embedding roots at s0; killing an s3 uplink leaves
    # the aggregation tree intact.
    fabric.inject(link="l0-s3", at=1_000.0, kind="down")
    result = future.result()
    assert "recoveries" not in result.extra
    assert fabric.tenant_stats()["t"]["recovered"] == 0


# ----------------------------------------------------------------------
# Switch-pool loss: host-based fallback
# ----------------------------------------------------------------------
def test_switch_down_falls_back_to_rabenseifner_with_payloads():
    # One handler slot per switch; a co-tenant's tree holds spine s1, so
    # once s0 dies no tree can be admitted and the collective falls back
    # host-based — over s1, the spine that still connects its hosts.
    fabric = Fabric(n_hosts=16, hosts_per_leaf=4, n_spines=2,
                    max_allreduces_per_switch=1)
    hog = fabric.communicator(name="hog")
    comm = fabric.communicator(name="t")
    hog.iallreduce("4MiB", algorithm="flare_dense", tree_root="s1",
                   hosts=[f"h{i}" for i in range(8, 16)])
    data, golden = _payloads(n=4096)
    future = comm.iallreduce(data, algorithm="flare_dense", tree_root="s0",
                             hosts=[f"h{i}" for i in range(8)])
    fabric.inject(switch="s0", at=2_000.0, kind="down")
    result = future.result()
    assert result.algorithm == "rabenseifner"
    [rec] = result.extra["recoveries"]
    assert rec["cause"] == {"kind": "down", "switch": "s0"}
    assert rec["to_algorithm"] == "rabenseifner"
    np.testing.assert_array_equal(result.extra["output"], golden)
    assert result.traffic_bytes_hops > 0        # the fallback ran on the wire
    entry = fabric.timeline()[1]
    assert entry["algorithm"] == "rabenseifner"
    assert entry["fell_back"]
    _assert_retired(fabric)


def test_switch_down_without_a_communicator_fails_the_future():
    """A tree issued with no communicator has nothing to replan a host
    fallback with: when its only spine dies mid-flight, the future fails
    with the re-root rejection (not an error inside the event loop) and
    nothing stays in flight."""
    fabric = Fabric(n_hosts=16, n_spines=1)
    plan = fabric.communicator(name="t").plan(nbytes="1MiB",
                                              algorithm="flare_dense")
    future = fabric.issue(None, plan)
    fabric.inject(switch="s0", at=1_000.0)
    with pytest.raises(ValueError, match="unreachable"):
        future.result()
    assert fabric.in_flight == 0
    [entry] = fabric.timeline()
    assert entry["status"] == "failed"
    [rec] = entry["recoveries"]
    assert rec["cause"] == {"kind": "down", "switch": "s0"}
    assert "unreachable" in rec["fallback_reason"]
    _assert_retired(fabric)


def test_rejected_tree_reroots_onto_a_spine_with_a_free_slot():
    # One handler slot per switch: a's tree takes spine s0, so b's
    # first tree (also rooted at s0) is rejected.  On an idle network
    # the coolest root is s0 again; re-rooting must skip the full spine
    # and keep b in-network on s1 instead of falling back to a ring.
    fabric = Fabric(n_hosts=32, hosts_per_leaf=8, n_spines=4,
                    max_allreduces_per_switch=1)
    a = fabric.communicator(name="a")
    b = fabric.communicator(name="b")
    fa = a.iallreduce("1MiB", algorithm="flare_dense",
                      hosts=[f"h{i}" for i in range(16)])
    fb = b.iallreduce("1MiB", algorithm="flare_dense",
                      hosts=[f"h{i}" for i in range(16, 32)])
    wait_all([fa, fb])
    first, second = fabric.timeline()
    assert first["algorithm"] == "flare_dense" and not first["fell_back"]
    assert second["algorithm"] == "flare_dense"
    assert second["fell_back"] is False
    assert second["admission"].endswith("replanned tree rooted at s1")


def test_dead_switch_rejects_new_admissions_until_repair():
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    comm = fabric.communicator(name="t")
    fabric.inject(switch="s0", at=0.0, kind="down", duration_ns=1e6)
    fabric.run(until=10.0)       # apply the fault
    assert fabric.manager.dead_switches() == {"s0"}
    # New in-network work plans around the dead spine (s1 root).
    result = comm.iallreduce("1MiB", algorithm="flare_dense").result()
    assert not result.extra["fell_back"]
    fabric.run()                 # past the repair
    assert fabric.manager.dead_switches() == set()


# ----------------------------------------------------------------------
# Lossy fabric end to end through the Communicator
# ----------------------------------------------------------------------
def test_lossy_fabric_completes_with_retransmit_accounting():
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    comm = fabric.communicator(name="t")
    fabric.inject(link="*", kind="lossy", loss_rate=0.02, seed=5)
    data, golden = _payloads()
    result = comm.iallreduce(data, algorithm="ring").result()
    np.testing.assert_array_equal(result.extra["output"], golden)
    assert result.extra["retransmits"] == result.extra["drops"]
    assert fabric.net.traffic.drops > 0


def test_two_tenants_survive_shared_chaos():
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    t0 = fabric.communicator(name="a", weight=2.0)
    t1 = fabric.communicator(name="b", weight=1.0)
    fabric.inject(link="*", kind="lossy", loss_rate=0.01, seed=2)
    data, golden = _payloads()
    futures = [
        t0.iallreduce(data, algorithm="ring"),
        t1.iallreduce("1MiB", algorithm="flare_dense"),
    ]
    results = wait_all(futures)
    np.testing.assert_array_equal(results[0].extra["output"], golden)
    stats = fabric.tenant_stats()
    assert stats["a"]["completed"] == 1 and stats["b"]["completed"] == 1


# ----------------------------------------------------------------------
# Observability & the inject API surface
# ----------------------------------------------------------------------
def test_timeline_json_reports_faults_and_reliability(tmp_path):
    import json

    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    comm = fabric.communicator(name="t")
    fabric.inject(link="*", kind="lossy", loss_rate=0.05, seed=1)
    fabric.inject(link="l0-s0", at=1_000.0, kind="down")
    comm.iallreduce("1MiB", algorithm="ring").result()
    path = tmp_path / "timeline.json"
    fabric.timeline_json(path=str(path))
    payload = json.loads(path.read_text())
    assert len(payload["faults"]) == 2
    assert payload["reliability"]["failed_links"] == ["l0-s0", "s0-l0"]
    assert payload["reliability"]["retransmits"] >= 0
    assert payload["events"][0]["status"] == "done"


@pytest.mark.parametrize("kwargs, field", [
    (dict(retransmit_timeout_ns=-1.0), "retransmit_timeout_ns"),
    (dict(retransmit_timeout_ns=0.0), "retransmit_timeout_ns"),
    (dict(retransmit_timeout_ns=float("nan")), "retransmit_timeout_ns"),
    (dict(retransmit_timeout_ns=float("inf")), "retransmit_timeout_ns"),
    (dict(max_retransmits=-1), "max_retransmits"),
    (dict(max_retransmits=2.5), "max_retransmits"),
    (dict(max_retransmits=None), "max_retransmits"),
])
def test_retransmit_knobs_rejected_at_construction(kwargs, field):
    """A bad timeout used to surface only at the first loss (an engine
    error for -1, a wrong makespan for nan); a bad budget as an
    UnreachableError after "0 retransmissions"."""
    with pytest.raises(ValueError, match=field):
        Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2, **kwargs)


def test_retransmit_knobs_reach_the_network():
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2,
                    retransmit_timeout_ns=1e3, max_retransmits=0)
    assert fabric.net.retransmit_timeout_ns == 1e3
    assert fabric.net.max_retransmits == 0


def test_inject_validates_targets():
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    with pytest.raises(ValueError):
        fabric.inject(kind="down")                     # no target
    with pytest.raises(ValueError):
        fabric.inject(link="*", kind="down")           # global outage
    spec = fabric.inject(link="l0-s0", kind="slow", slow_factor=2.0)
    assert spec.link == ("l0", "s0")
    assert fabric.faults is not None
    assert fabric.net.fast_path is False               # disengaged
