"""Provenance counters are engine-independent.

The acceptance contract for the observability subsystem: the counter
rows the database records must not depend on *which* engine simulated
the run.

* network fast paths vs the per-event loop (``REPRO_FASTPATH=0``):
  :func:`collect_links` rows are bitwise-identical — FIFO hop windows
  add bytes/messages as integer-valued float sums and ``busy_ns`` is
  derived from those bytes by one division.  Under WFQ every family
  but the queue-depth peaks matches (the uncontended bypass never
  queues, so only genuinely contended instants raise a peak).
* packet-train fast path vs per-packet DES: :func:`collect_switch`
  integer families are bitwise-identical; the cycle accumulators agree
  to float addition-order tolerance (the fast path sums per subset),
  the same contract tests/pspin/test_train_parity.py pins for the raw
  telemetry.
* fault runs: per-link drops/duplicates reconcile with the run-level
  totals.
"""

import math

import pytest

from repro.core.allreduce import plan_switch_allreduce
from repro.network import FatTreeTopology, Message
from repro.network.faults import FaultSpec
from repro.network.simulator import NetworkSimulator
from repro.pspin.engine import Simulator
from repro.provenance.collect import (
    LINK_COUNTER_FAMILIES,
    SWITCH_COUNTER_FAMILIES,
    collect_links,
    collect_switch,
    link_rows_to_table,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: Float cycle accumulators: addition-order tolerance, not bitwise.
_CYCLE_FAMILIES = {"busy_cycles", "hpu_busy_cycles", "contention_wait_cycles"}


# ----------------------------------------------------------------------
# Link counters: fast paths vs the per-event loop, bitwise
# ----------------------------------------------------------------------
def _storm_links(monkeypatch, fast, arbitration="fifo", flows=False, incast=False):
    """A transport storm, read back as provenance rows (and how many
    hops ran in FIFO windows).  The optional incast drives WFQ queues
    deep enough to record nonzero ``queue_depth_peak`` on contended
    links."""
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fast else "0")
    topo = FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
    sim = Simulator()
    net = NetworkSimulator(topo, router="updown", sim=sim, arbitration=arbitration)
    hosts = topo.hosts
    n = len(hosts)
    k = 0
    for i, src in enumerate(hosts):
        for off in (1, 7, 19, 23, 37):
            flow = f"f{k % 3}" if flows else None
            net.send(
                Message(src, hosts[(i + off) % n], 4096.0 * (1 + k % 5),
                        flow=flow),
                at=1.0 * (k % 50),
            )
            k += 1
    if incast:
        for j, src in enumerate(hosts[:-1]):
            net.send(
                Message(src, hosts[-1], 125000.0,
                        flow="f0" if flows else None),
                at=1.0 * j,
            )
    if flows:
        net.set_flow_weight("f0", 2.0)
    sim.run()
    return sim.now, link_rows_to_table(collect_links(net)), net.windowed_hops


def test_fifo_link_rows_bitwise_across_engines(monkeypatch):
    ref_makespan, ref, ref_windowed = _storm_links(monkeypatch, fast=False)
    makespan, table, windowed = _storm_links(monkeypatch, fast=True)
    assert ref_windowed == 0 and windowed > 0
    assert makespan == ref_makespan
    assert table == ref  # dict equality == bitwise float equality
    # The storm crossed real links and every row is a known family.
    assert ref
    for counters in ref.values():
        assert set(counters) <= set(LINK_COUNTER_FAMILIES)


def _without_peaks(table: dict) -> dict:
    return {
        link: {k: v for k, v in counters.items() if k != "queue_depth_peak"}
        for link, counters in table.items()
    }


def test_wfq_link_rows_and_queue_peaks_bitwise_across_engines(monkeypatch):
    kw = {"arbitration": "wfq", "flows": True, "incast": True}
    ref_makespan, ref, _ = _storm_links(monkeypatch, fast=False, **kw)
    makespan, table, _ = _storm_links(monkeypatch, fast=True, **kw)
    assert makespan == ref_makespan
    assert _without_peaks(table) == _without_peaks(ref)
    # The incast actually exercised the peak gauge on both paths.
    for run in (ref, table):
        peak_links = [c for c in run.values() if "queue_depth_peak" in c]
        assert peak_links
        assert all(c["queue_depth_peak"] >= 1.0 for c in peak_links)


# ----------------------------------------------------------------------
# Switch counters: packet-train fast path vs per-packet DES
# ----------------------------------------------------------------------
def _switch_pair(algo, **kw):
    results = []
    for env in ("1", "0"):
        plan = plan_switch_allreduce("16KiB", children=16, algorithm=algo,
                                     n_clusters=2, **kw)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_FASTPATH", env)
            results.append(plan.execute(seed=0, cold_start=True, jitter=1.0))
    return results


@pytest.mark.parametrize("algo", ["single", "multi(4)", "tree"])
def test_switch_counters_match_across_tiers(algo):
    fast, slow = _switch_pair(algo)
    assert fast.fast_path_used is True
    assert slow.fast_path_used is False
    assert set(fast.provenance) == set(SWITCH_COUNTER_FAMILIES)
    assert set(slow.provenance) == set(SWITCH_COUNTER_FAMILIES)
    for name in SWITCH_COUNTER_FAMILIES:
        got, want = fast.provenance[name], slow.provenance[name]
        if name in _CYCLE_FAMILIES:
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6), name
        else:
            assert got == want, name


def test_switch_counters_are_plain_floats():
    """Values must round-trip sqlite REAL and JSON unchanged."""
    _, slow = _switch_pair("single")
    assert all(type(v) is float for v in slow.provenance.values())


# ----------------------------------------------------------------------
# Fault runs: per-link reliability counters reconcile with run totals
# ----------------------------------------------------------------------
def _lossy_run(loss_rate=0.0, duplicate_rate=0.0, seed=3):
    topo = FatTreeTopology(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    net = NetworkSimulator(topo)
    net.arm_faults(seed=seed).inject(
        FaultSpec(kind="lossy", link="*", loss_rate=loss_rate,
                  duplicate_rate=duplicate_rate)
    )
    got = []
    net.on_deliver("h7", lambda m, t: got.append(t))
    for i in range(40):
        net.send(Message("h0", "h7", 1024.0, tag=("m", i)), at=float(i))
    net.run()
    return net


def test_per_link_drops_reconcile_with_run_total():
    net = _lossy_run(loss_rate=0.25)
    assert net.traffic.drops > 0
    # Every drop happened on a known link; dead-switch swallows (none
    # here) are the only run-level drops without a link attribution.
    assert sum(net.traffic.link_drops.values()) == net.traffic.drops
    table = link_rows_to_table(collect_links(net))
    recorded = sum(c.get("drops", 0.0) for c in table.values())
    assert recorded == float(net.traffic.drops)


def test_per_link_duplicates_reconcile_with_run_total():
    net = _lossy_run(duplicate_rate=0.3, seed=1)
    assert net.traffic.duplicates > 0
    assert sum(net.traffic.link_duplicates.values()) == net.traffic.duplicates
    table = link_rows_to_table(collect_links(net))
    recorded = sum(c.get("duplicates", 0.0) for c in table.values())
    assert recorded == float(net.traffic.duplicates)
