"""Tests for the network-manager control plane (Sec. 4): handler
installation on the simulated switch, and pooled admission."""

import pytest

import repro.core.allreduce as dense
from repro.core.manager import NetworkManager
from repro.pspin.switch import PsPINSwitch


@pytest.mark.parametrize("algorithm", ["single", "multi(2)", "tree"])
def test_plan_execute_installs_handler_and_rule(monkeypatch, algorithm):
    """``SwitchAllreducePlan.execute`` installs one handler, the root of
    a one-switch tree multicasting to every child, and its allreduce id
    in the switch's table."""
    switches = []

    def captured(cfg):
        switches.append(PsPINSwitch(cfg))
        return switches[-1]

    monkeypatch.setattr(dense, "PsPINSwitch", captured)
    plan = dense.plan_switch_allreduce(
        "8KiB", children=4, algorithm=algorithm, n_clusters=1
    )
    plan.execute(seed=0)
    (switch,) = switches
    (name,) = switch._handlers
    handler = switch.handler(name)
    assert handler.config.allreduce_id == 1
    assert handler.config.n_children == 4
    assert handler.config.multicast_ports == [0, 1, 2, 3]
    assert switch.allreduces == {1: name}
    assert plan.describe()["aggregation"] == algorithm


# ----------------------------------------------------------------------
# Pooled admission (the fabric control-plane path)
# ----------------------------------------------------------------------
def test_admit_pools_slots_across_tenants():
    from repro.core.manager import AdmissionError

    mgr = NetworkManager(max_allreduces_per_switch=2)
    t1 = mgr.admit(("s0", "l0"), tenant="A")
    t2 = mgr.admit(("s0", "l1"), tenant="B")
    with pytest.raises(AdmissionError, match="s0 already serves"):
        mgr.admit(("s0",), tenant="C")
    # Rejection consumed nothing: the other switches are untouched.
    assert mgr.utilization()["switch_load"]["l0"] == 1
    mgr.release(t1)
    t3 = mgr.admit(("s0",), tenant="C")
    assert mgr.utilization()["switch_load"]["s0"] == 2
    mgr.release(t2)
    mgr.release(t3)
    assert mgr.utilization()["admitted"] == 0


def test_admit_meters_switch_memory():
    from repro.core.manager import AdmissionError

    mgr = NetworkManager(switch_memory_bytes=1000.0)
    ticket = mgr.admit(("s0",), memory_bytes=700.0)
    with pytest.raises(AdmissionError, match="memory pool exhausted") as info:
        mgr.admit(("s0",), memory_bytes=400.0)
    assert info.value.resource == "memory"
    mgr.release(ticket)
    mgr.admit(("s0",), memory_bytes=900.0)


def test_tenant_quota_is_per_tenant():
    from repro.core.manager import AdmissionError

    mgr = NetworkManager(tenant_quota=1)
    mgr.admit(("s0",), tenant="A")
    with pytest.raises(AdmissionError, match="quota") as info:
        mgr.admit(("l0",), tenant="A")
    assert info.value.resource == "quota"
    mgr.admit(("l0",), tenant="B")      # other tenants unaffected


def test_release_unknown_ticket_raises():
    mgr = NetworkManager()
    ticket = mgr.admit(("s0",))
    mgr.release(ticket)
    with pytest.raises(KeyError):
        mgr.release(ticket)


def test_capacity_limit_rejects_install():
    mgr = NetworkManager(max_allreduces_per_switch=1)
    mgr.admit((0,))
    with pytest.raises(RuntimeError, match="fall back to host-based"):
        mgr.admit((0,))


def test_install_raises_tagged_admission_error():
    from repro.core.manager import AdmissionError

    mgr = NetworkManager(max_allreduces_per_switch=1)
    mgr.admit((0,))
    with pytest.raises(AdmissionError, match="fall back to host-based") as info:
        mgr.admit((0,))
    assert info.value.resource == "slots"


def test_uninstall_frees_capacity_and_rule():
    mgr = NetworkManager(max_allreduces_per_switch=1)
    ticket = mgr.admit((0,))
    mgr.release(ticket)
    assert mgr.utilization()["admitted"] == 0
    assert mgr.utilization()["switch_load"][0] == 0
    # Capacity is free again.
    mgr.admit((0,))


def test_uninstall_unknown_id_raises():
    from repro.core.manager import AdmissionTicket

    mgr = NetworkManager()
    with pytest.raises(KeyError):
        mgr.release(AdmissionTicket(42, (), None, 0.0))


def test_negative_capacity_rejected():
    """A negative slot count is a typo, not "no switch admits": it used
    to send every tree to the host fallback.  Zero stays legal."""
    from repro.comm.fabric import Fabric

    with pytest.raises(ValueError, match="max_allreduces_per_switch"):
        NetworkManager(max_allreduces_per_switch=-1)
    with pytest.raises(ValueError, match="max_allreduces_per_switch"):
        Fabric(max_allreduces_per_switch=-1)
    assert NetworkManager(max_allreduces_per_switch=0).max_allreduces == 0
