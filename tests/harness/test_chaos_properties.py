"""Chaos properties: random fault schedules never change *what* a
collective computes — only how long it takes and how many chunks had to
be retransmitted.

Hypothesis draws seeded loss/duplication schedules and single-outage
scenarios; payloads must stay bitwise identical to the fault-free run,
the reliability counters must balance, and toggling the simulation
fast path under the same fault seed must not change anything (the
fast path provably disengages when faults are armed).

The exhaustive every-algorithm × multi-seed sweep is marked ``slow``
(the chaos-smoke CI job runs it); representative properties stay in
the tier-1 gate.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator, Fabric, available_algorithms, get_algorithm
from tests.harness.test_differential import (
    N_HOSTS,
    make_payloads,
    output_of,
)

#: Links of the 8-host fat tree worth degrading: a host uplink, an
#: oversubscribed leaf uplink, and everything at once.
LINK_TARGETS = ("*", "h0-l0", "l0-s0", "l1-s1")


def _fabric() -> Fabric:
    return Fabric(n_hosts=N_HOSTS, hosts_per_leaf=4, n_spines=2)


def _clean_reference(algorithm: str, data) -> np.ndarray:
    comm = Communicator(n_hosts=N_HOSTS, hosts_per_leaf=4, n_spines=2)
    return output_of(comm.allreduce(data, algorithm=algorithm))


@settings(max_examples=12, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**16),
    loss_rate=st.floats(min_value=0.0005, max_value=0.01),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.01),
    link=st.sampled_from(LINK_TARGETS),
    algorithm=st.sampled_from(["ring", "flare_dense", "swing", "butterfly"]),
)
def test_random_loss_never_changes_payloads(
    fault_seed, loss_rate, duplicate_rate, link, algorithm
):
    data, golden = make_payloads("int32", seed=1)
    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link=link, kind="lossy", loss_rate=loss_rate,
                  duplicate_rate=duplicate_rate, seed=fault_seed)
    result = comm.iallreduce(data, algorithm=algorithm).result()
    np.testing.assert_array_equal(output_of(result), golden)
    # Only makespan and the reliability counters may move.  Every lost
    # original is retransmitted; a lost duplicate is counted as a drop
    # but not retransmitted (its original is delivered).
    stats = fabric.net.traffic
    assert stats.retransmits <= stats.drops
    assert stats.drops - stats.retransmits <= stats.duplicates
    assert result.extra["retransmits"] >= 0


@pytest.mark.parametrize("algorithm", ["ring", "swing", "butterfly"])
@settings(max_examples=8, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**16),
    loss_rate=st.floats(min_value=0.001, max_value=0.01),
)
def test_fault_runs_are_process_stable(algorithm, fault_seed, loss_rate):
    """Same schedule + seed -> identical makespan, traffic, and
    counters (the determinism contract chaos CI relies on), for the
    ring and both halving/doubling host schedules."""

    def run():
        data, _ = make_payloads("int32", seed=2)
        fabric = _fabric()
        comm = fabric.communicator(name="t")
        fabric.inject(link="*", kind="lossy", loss_rate=loss_rate,
                      seed=fault_seed)
        result = comm.iallreduce(data, algorithm=algorithm).result()
        stats = fabric.net.traffic
        return (result.time_ns, stats.drops, stats.retransmits,
                stats.bytes_hops)

    assert run() == run()


@settings(max_examples=6, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**16),
    loss_rate=st.floats(min_value=0.001, max_value=0.01),
)
def test_fastpath_toggle_is_invisible_under_faults(fault_seed, loss_rate):
    """REPRO_FASTPATH on/off under the same fault seed: identical
    payloads and makespans — arming faults disengages the fast path,
    so both settings drive the exact per-packet DES."""

    def run():
        data, _ = make_payloads("int32", seed=3)
        fabric = _fabric()
        assert fabric.net.fast_path is (
            os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "no")
        )
        comm = fabric.communicator(name="t")
        fabric.inject(link="*", kind="lossy", loss_rate=loss_rate,
                      seed=fault_seed)
        assert fabric.net.fast_path is False      # provably disengaged
        result = comm.iallreduce(data, algorithm="ring").result()
        return result.time_ns, output_of(result)

    old = os.environ.get("REPRO_FASTPATH")
    try:
        os.environ["REPRO_FASTPATH"] = "1"
        t_fast, out_fast = run()
        os.environ["REPRO_FASTPATH"] = "0"
        t_slow, out_slow = run()
    finally:
        if old is None:
            os.environ.pop("REPRO_FASTPATH", None)
        else:
            os.environ["REPRO_FASTPATH"] = old
    assert t_fast == t_slow
    np.testing.assert_array_equal(out_fast, out_slow)


def test_single_outage_recovery_under_residual_loss():
    """The acceptance scenario: 1% background loss plus a mid-flight
    link outage — the tree collective recovers, the timeline records
    it, and payloads stay bitwise exact."""
    data, golden = make_payloads("int32", seed=4)
    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link="*", kind="lossy", loss_rate=0.01, seed=11)
    fabric.inject(link="l0-s0", at=3_000.0, kind="down")
    result = comm.iallreduce(data, algorithm="flare_dense").result()
    np.testing.assert_array_equal(output_of(result), golden)
    assert result.extra["recoveries"]
    [entry] = fabric.timeline()
    assert entry["recoveries"] and entry["status"] == "done"


@pytest.mark.slow
@pytest.mark.parametrize("fault_seed", [0, 1, 2])
@pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
def test_chaos_sweep_every_algorithm(algorithm, fault_seed):
    """Every registered algorithm completes under 1% loss plus a
    single leaf-spine outage, bitwise-correct where it executes
    payloads (the chaos-smoke CI sweep)."""
    entry = get_algorithm(algorithm)
    sparse = entry.caps.sparse and not entry.caps.dense
    kwargs = {"sparse": True, "density": 0.1} if sparse else {}
    data, golden = make_payloads("int32", seed=fault_seed)

    fabric = _fabric()
    comm = fabric.communicator(name="t")
    fabric.inject(link="*", kind="lossy", loss_rate=0.01, seed=fault_seed)
    fabric.inject(link="l0-s0", at=2_000.0, kind="down")

    request, _ = comm.make_request(
        data if not sparse else data[0].nbytes,
        algorithm=algorithm, dtype="int32", **kwargs,
    )
    if entry.caps.rejects(request) is not None:
        pytest.skip(f"{algorithm}: {entry.caps.rejects(request)}")
    payload_ok = not sparse and (
        entry.payload_rejects is None
        or entry.payload_rejects(request, data) is None
    )
    payload = data if payload_ok else data[0].nbytes
    result = comm.iallreduce(payload, algorithm=algorithm, dtype="int32",
                             **kwargs).result()
    assert result.time_ns > 0
    if payload_ok:
        np.testing.assert_array_equal(output_of(result), golden)
