"""Lazy egress of the dense packet-train fast path.

A fast-path commit keeps its completed blocks as one
:class:`~repro.pspin.packets.EgressRecord` and expands it into per-port
``(time, SwitchPacket)`` entries only when ``switch.egress`` is read or
a per-packet emission appends behind it.  Whatever is read must equal
what the per-packet DES emits.
"""

import numpy as np
import pytest

import repro.core.allreduce as allreduce_mod
from repro.core.allreduce import plan_switch_allreduce
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch


@pytest.fixture
def switches(monkeypatch):
    """Every switch a plan executes on, in creation order."""
    made: list[PsPINSwitch] = []

    class Recording(PsPINSwitch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(allreduce_mod, "PsPINSwitch", Recording)
    return made


def run_both(
    switches,
    algorithm,
    dtype,
    children=12,
    size="16KiB",
    jitter=1.0,
    n_clusters=2,
    staggered=True,
    reproducible=False,
):
    """(fast-path switch, DES switch, fast result, DES result) for one
    shape."""
    results = []
    for env in ("1", "0"):
        plan = plan_switch_allreduce(
            size,
            children=children,
            algorithm=algorithm,
            dtype=dtype,
            n_clusters=n_clusters,
            staggered=staggered,
            reproducible=reproducible,
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_FASTPATH", env)
            results.append(plan.execute(seed=4, jitter=jitter))
    assert results[0].fast_path_used and not results[1].fast_path_used
    fast_sw, des_sw = switches[-2:]
    return fast_sw, des_sw, *results


@pytest.mark.parametrize("algorithm", ["single", "multi(4)", "tree"])
@pytest.mark.parametrize("dtype", ["int32", "float32"])
@pytest.mark.parametrize("children,jitter", [(12, 1.0), (6, 0.0)])
def test_expanded_egress_equals_des(switches, algorithm, dtype, children, jitter):
    # Both shapes have same-instant completions of different blocks;
    # the DES emits those in dispatch order, not by block id.
    fast_sw, des_sw, *_ = run_both(switches, algorithm, dtype, children, jitter=jitter)
    assert fast_sw._egress_records          # nothing expanded yet
    fast, des = fast_sw.egress, des_sw.egress
    assert not fast_sw._egress_records
    assert len(fast) == len(des) == 16 * children   # blocks x multicast ports
    for (t_f, p_f), (t_d, p_d) in zip(fast, des):
        assert t_f == t_d
        assert (p_f.allreduce_id, p_f.block_id, p_f.port) == (
            p_d.allreduce_id, p_d.block_id, p_d.port
        )
        assert p_f.payload.dtype == p_d.payload.dtype
        assert p_f.payload.tobytes() == p_d.payload.tobytes()
    # Each block's copies leave on every child port, ascending.
    ports = [p.port for _t, p in fast]
    assert ports == list(range(children)) * 16
    for name in ("packets_out", "bytes_out"):
        assert (
            getattr(fast_sw.telemetry, name).value
            == getattr(des_sw.telemetry, name).value
        ), name


@pytest.mark.parametrize("dtype,reproducible", [("int32", False), ("float32", True)])
def test_unstaggered_paper_scale_tree_ties_match_des(switches, dtype, reproducible):
    # Unstaggered, jitter-free sending at 64 children and 4 clusters:
    # the tree's 1,024 egress entries leave at only 16 distinct
    # instants, one per block, so each block's 64 port copies tie.
    fast_sw, des_sw, fast, des = run_both(
        switches, "tree", dtype, children=64, jitter=0.0, n_clusters=4,
        staggered=False, reproducible=reproducible,
    )
    fast_egress = [(t, p.block_id, p.port) for t, p in fast_sw.egress]
    assert len(fast_egress) == 16 * 64
    assert len({t for t, _b, _p in fast_egress}) == 16
    assert fast_egress == [(t, p.block_id, p.port) for t, p in des_sw.egress]
    assert fast.makespan_cycles == des.makespan_cycles
    assert fast.outputs.keys() == des.outputs.keys()
    for block_id, payload in des.outputs.items():
        assert fast.outputs[block_id].tobytes() == payload.tobytes()


def test_port_copies_are_independent(switches):
    fast_sw, _des_sw, result, _ = run_both(switches, "tree", "float32")
    block = [pkt for _t, pkt in fast_sw.egress if pkt.block_id == 3]
    before = [pkt.payload.copy() for pkt in block]
    block[0].payload[:] = -1.0
    for pkt, old in zip(block[1:], before[1:]):
        assert np.array_equal(pkt.payload, old)
    # The result's outputs are not any port's copy either.
    assert np.array_equal(result.outputs[3], before[0])


def test_block_outputs_read_records_without_expanding(switches):
    fast_sw, des_sw, result, _ = run_both(switches, "multi(4)", "int32")
    outputs = fast_sw.block_outputs()
    assert fast_sw._egress_records                  # still lazy
    assert outputs.keys() == result.outputs.keys()
    des_outputs = des_sw.block_outputs()
    for block_id, payload in des_outputs.items():
        assert outputs[block_id].tobytes() == payload.tobytes()


def test_des_packet_after_fast_path_train_lands_last(switches):
    fast_sw, des_sw, *_ = run_both(switches, "tree", "int32", jitter=0.0)
    assert fast_sw._egress_records
    # An allreduce id no rule matches bypasses the processing unit and
    # goes straight to _emit, behind the unexpanded commit.
    late = SwitchPacket(allreduce_id=999, block_id=0, port=0,
                        payload=np.zeros(4, dtype=np.int32))
    fast_sw.inject(late, at=fast_sw.sim.now + 10.0)
    fast_sw.run()
    egress = fast_sw.egress
    assert len(egress) == len(des_sw.egress) + 1
    assert egress[-1][0] == fast_sw.sim.now and egress[-1][1] is late
    assert [(t, p.block_id, p.port) for t, p in egress[:-1]] == [
        (t, p.block_id, p.port) for t, p in des_sw.egress
    ]
    assert fast_sw.telemetry.packets_out.value == len(egress)


def test_sparse_egress_byte_accounting_matches_des(monkeypatch):
    plan = plan_switch_allreduce(
        "8KiB", density=0.1, storage="hash", children=64, n_clusters=4
    )
    fast = plan.execute(seed=1)
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    des = plan.execute(seed=1)
    assert fast.fast_path_used and not des.fast_path_used
    assert fast.egress_payload_bytes == des.egress_payload_bytes > 0
    assert fast.ideal_egress_bytes == des.ideal_egress_bytes
    assert fast.spilled_bytes == des.spilled_bytes
    assert fast.extra_traffic_pct == des.extra_traffic_pct
