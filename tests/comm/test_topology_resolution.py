"""`Wiring`: the one resolver of a request's fabric, which the
Communicator constructor, Fabric, plans and the cost model share."""

import pytest

from repro.comm import CapabilityError, Communicator, Fabric, Wiring
from repro.comm.planner.model import link_model
from repro.network.topology import FatTreeTopology


def test_prebuilt_topology_dictates_host_count():
    topo = FatTreeTopology(n_hosts=32, hosts_per_leaf=8, n_spines=4)
    wiring = Wiring({"topology": topo}, 64)
    assert wiring.n_hosts == 32
    assert wiring.topology_params is None
    assert wiring.build() is topo


def test_bare_fat_tree_passes_through():
    # The default fat tree is sized from the request, without a build.
    for params, n in (({}, 64), ({"topology": "fat-tree"}, 24)):
        wiring = Wiring(params, n)
        assert wiring.n_hosts == n
        assert wiring.topology_params is None
        assert wiring._shape is None
        assert wiring.kwargs == {
            "n_hosts": n, "hosts_per_leaf": 8, "n_spines": 4,
            "link_gbps": 100.0, "link_latency_ns": 250.0,
        }


def test_n_hosts_forwarded_into_parameterized_families():
    wiring = Wiring({"topology": "multi-rail", "topology_params": {"n_rails": 2}}, 16)
    assert wiring.n_hosts == 16
    assert wiring.topology_params == {"n_rails": 2, "n_hosts": 16}
    # An explicit n_hosts in the params wins over the request's.
    wiring = Wiring({"topology": "fat-tree", "topology_params": {"n_hosts": 8}}, 64)
    assert wiring.n_hosts == 8
    assert wiring.topology_params["n_hosts"] == 8


def test_dimension_implied_families_size_the_communicator():
    params = {"dim_x": 3, "dim_y": 3, "hosts_per_switch": 2}
    wiring = Wiring({"topology": "torus", "topology_params": params}, 64)
    assert wiring.n_hosts == 18
    assert wiring.topology_params == params


def test_unknown_family_passes_through_for_late_rejection():
    wiring = Wiring({"topology": "warpgate", "topology_params": {"k": 1}}, 12)
    assert wiring.n_hosts == 12
    assert wiring.topology_params == {"k": 1}
    comm = Communicator(n_hosts=12, topology="warpgate", topology_params={"k": 1})
    assert comm.n_hosts == 12
    with pytest.raises(CapabilityError, match="unknown topology family 'warpgate'"):
        comm.plan(nbytes="64KiB", algorithm="ring")


def test_communicator_uses_the_helper():
    comm = Communicator(
        topology="torus",
        topology_params={"dim_x": 3, "dim_y": 3, "hosts_per_switch": 2},
    )
    assert comm.n_hosts == 18
    comm = Communicator(n_hosts=16, topology="multi-rail",
                        topology_params={"n_rails": 2})
    assert comm.n_hosts == 16
    assert comm._defaults["topology_params"]["n_hosts"] == 16
    # A request that overrides no wiring shares the communicator's, so
    # the topology built to size the communicator shapes its plans.
    request, _ = comm.make_request("64KiB", algorithm="ring")
    assert request.wiring is comm._wiring
    comm.plan(request)
    assert comm._wiring._shape is not None
    request, _ = comm.make_request("64KiB", algorithm="ring", routing="shortest")
    assert request.wiring is not comm._wiring


def test_link_model_reads_the_resolved_links():
    """A tenant of a 400 Gbps, 100 ns fabric is priced on those links,
    not on the 100 Gbps, 250 ns defaults."""
    fabric = Fabric(FatTreeTopology(n_hosts=16, link_gbps=400.0, link_latency_ns=100.0))
    request, _ = fabric.communicator().make_request("64KiB", algorithm="ring")
    assert link_model(request) == (100.0, 50.0)
    named = Wiring({"topology": "torus", "topology_params": {"link_gbps": 200.0}}, 64)
    assert named.links() == (200.0, 250.0)
    legacy = Wiring({"link_gbps": 400.0}, 16)
    assert legacy.links() == (400.0, 250.0)
    assert legacy.build().link_gbps == 400.0
