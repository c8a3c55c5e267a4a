"""Communicator facade: unified routing, payloads, futures."""

import numpy as np
import pytest

from repro.collectives.result import CollectiveResult
from repro.comm import Communicator, wait_all
from repro.core.allreduce import make_dense_blocks


@pytest.fixture(scope="module")
def comm():
    c = Communicator(n_hosts=8, n_clusters=1)
    yield c
    c.close()


#: One request shape routed through every registered algorithm family.
ALGORITHMS = (
    ("ring", {}),
    ("rabenseifner", {}),
    ("recursive_doubling", {}),
    ("flare_dense", {}),
    ("flare_switch", {}),
    ("sparcml", {"sparse": True}),
    ("flare_sparse", {"sparse": True}),
    ("flare_switch_sparse", {"sparse": True, "density": 0.1}),
)


@pytest.mark.parametrize("algorithm,kwargs", ALGORITHMS)
def test_unified_routing(comm, algorithm, kwargs):
    result = comm.allreduce("16KiB", algorithm=algorithm, **kwargs)
    assert isinstance(result, CollectiveResult)
    assert result.algorithm == algorithm
    assert result.op == "sum"
    assert result.n_hosts == 8
    assert result.time_ns > 0
    assert result.sent_bytes_per_host > 0


def test_auto_selection(comm):
    dense = comm.allreduce("4KiB")
    assert dense.algorithm == "flare_switch"
    sparse = comm.allreduce("4KiB", sparse=True, density=0.2)
    assert sparse.algorithm == "flare_sparse"


def test_payload_allreduce_reduces_values(comm):
    data = make_dense_blocks(8, 4, 256, dtype="float32", seed=3)
    result = comm.allreduce(data, algorithm="flare_switch", seed=3)
    golden = data.sum(axis=0)
    for block, out in result.raw.outputs.items():
        np.testing.assert_allclose(out, golden[block], rtol=1e-5)


def test_payload_inmemory_algorithm(comm):
    data = np.arange(8 * 64, dtype=np.float32).reshape(8, 64)
    result = comm.allreduce(data, algorithm="rabenseifner")
    np.testing.assert_allclose(result.extra["output"], data.sum(axis=0), rtol=1e-6)
    assert result.n_hosts == 8


def test_simulation_backends_reject_payloads(comm):
    from repro.comm import CapabilityError

    data = np.zeros((8, 64), dtype=np.float32)
    for algorithm in ("flare_switch_sparse",):
        with pytest.raises(CapabilityError, match="does not reduce payload values"):
            comm.allreduce(data, algorithm=algorithm, sparse=True, density=0.1)


def test_network_schedules_execute_payloads_when_named(comm):
    # Explicitly-named ring / flare_dense carry and bitwise-reduce real
    # data through the simulated network (auto keeps them timing-only).
    rng = np.random.default_rng(11)
    data = rng.integers(-8, 8, size=(8, 96)).astype(np.int32)
    golden = data.sum(axis=0, dtype=np.int64).astype(np.int32)
    for algorithm in ("ring", "flare_dense"):
        result = comm.allreduce(data, algorithm=algorithm)
        np.testing.assert_array_equal(result.extra["output"], golden)
        assert result.algorithm == algorithm


def test_auto_payload_falls_back_when_switch_infeasible(comm):
    # 100 elements don't divide into 256-element packets: flare_switch
    # is infeasible, so auto falls through to an executing host
    # algorithm instead of crashing.
    data = np.ones((8, 100), dtype=np.float32)
    result = comm.allreduce(data)
    assert result.algorithm == "rabenseifner"
    np.testing.assert_allclose(result.extra["output"], data.sum(axis=0))
    # float64 payloads: unsupported by the switch cost model, fine for
    # the host-based schedules.
    data64 = np.ones((8, 256), dtype=np.float64)
    result = comm.allreduce(data64)
    assert result.algorithm == "rabenseifner"


def test_stale_plan_rejects_resized_payloads(comm):
    # Every payload-carrying schedule, not only the host fallbacks.
    for algorithm in ("ring", "swing", "butterfly", "rabenseifner",
                      "recursive_doubling", "flare_dense"):
        plan = comm.plan(nbytes=256, algorithm=algorithm)
        with pytest.raises(ValueError, match="plan was sized"):
            plan.execute(np.ones((8, 1000), dtype=np.float32))


def test_plan_with_payloads_steers_selection(comm):
    # plan(data=payloads) must keep the payloads for resolution: 100
    # elements/host is infeasible for flare_switch.
    data = np.ones((8, 100), dtype=np.float32)
    plan = comm.plan(data=data)
    assert plan.algorithm == "rabenseifner"
    result = plan.execute(data)
    np.testing.assert_allclose(result.extra["output"], data.sum(axis=0))


def test_plan_kwargs_strip_execute_keys():
    # Warming the cache via plan(seed=...) must hit on the later
    # allreduce: execute-time knobs never shape the plan key.
    comm = Communicator(n_hosts=8)
    comm.plan(nbytes="64KiB", algorithm="ring", seed=1)
    comm.allreduce("64KiB", algorithm="ring", seed=1)
    info = comm.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_inmemory_time_model_honors_link_params(comm):
    slow = comm.allreduce("1MiB", algorithm="rabenseifner")
    fast = comm.allreduce("1MiB", algorithm="rabenseifner", link_gbps=400.0)
    assert fast.time_ns < slow.time_ns


def test_payload_shape_mismatch_raises(comm):
    with pytest.raises(ValueError, match="n_hosts"):
        comm.allreduce(np.zeros((4, 16), dtype=np.float32), n_hosts=8)
    with pytest.raises(ValueError, match="shape"):
        comm.allreduce(np.zeros(16, dtype=np.float32))


def test_summary_includes_sent_bytes(comm):
    result = comm.allreduce("1MiB", algorithm="ring")
    assert "MiB sent/host" in result.summary()


def test_iallreduce_future(comm):
    future = comm.iallreduce("16KiB", algorithm="ring")
    result = future.result(timeout=60)
    assert future.done()
    assert future.exception() is None
    assert future.algorithm == "ring"
    assert result.algorithm == "ring"


def test_iallreduce_overlap_and_wait_all(comm):
    futures = [
        comm.iallreduce("16KiB", algorithm="ring"),
        comm.iallreduce("16KiB", algorithm="flare_dense"),
        comm.iallreduce("16KiB", algorithm="recursive_doubling"),
    ]
    results = wait_all(futures, timeout=60)
    assert [r.algorithm for r in results] == [
        "ring", "flare_dense", "recursive_doubling",
    ]
    assert all(r.time_ns > 0 for r in results)


def test_iallreduce_capability_error_raises_synchronously(comm):
    from repro.comm import CapabilityError

    with pytest.raises(CapabilityError):
        comm.iallreduce("16KiB", algorithm="ring", sparse=True, density=0.5)


def test_context_manager_drains_fabric():
    with Communicator(n_hosts=4) as c:
        assert c.iallreduce("4KiB", algorithm="ring").result(timeout=60)
    # close() drained the implicit private fabric's loop.
    assert c.fabric is not None
    assert c.fabric.in_flight == 0


# ----------------------------------------------------------------------
# Direct plans vs the Communicator
# ----------------------------------------------------------------------
def test_switch_plan_matches_communicator():
    from repro.core.allreduce import plan_switch_allreduce

    direct = plan_switch_allreduce("4KiB", children=4, n_clusters=1).execute(seed=9)
    comm = Communicator(n_hosts=4, n_clusters=1)
    unified = comm.allreduce("4KiB", algorithm="flare_switch", seed=9)
    assert direct.makespan_cycles == unified.raw.makespan_cycles
    assert direct.algorithm == unified.raw.algorithm
    np.testing.assert_array_equal(direct.outputs[0], unified.raw.outputs[0])


def test_ring_on_explicit_topology_matches_named_shape():
    from repro.network.topology import FatTreeTopology

    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=8, n_spines=4)
    explicit = Communicator(topology=topo).allreduce(2.0**20, algorithm="ring")
    comm = Communicator(n_hosts=16, hosts_per_leaf=8, n_spines=4)
    unified = comm.allreduce(2.0**20, algorithm="ring")
    assert explicit.time_ns == unified.time_ns
    assert explicit.traffic_bytes_hops == unified.traffic_bytes_hops


def test_explicit_topology_failures_shape_every_standalone_call():
    """Each standalone call runs on a fresh copy of an explicit topology
    that keeps its failed links; the caller's links stay idle."""
    from repro.comm import Fabric
    from repro.network.topology import FatTreeTopology

    topo = FatTreeTopology(n_hosts=16, hosts_per_leaf=4, n_spines=2)
    topo.fail_link("l0", "s0")
    comm = Communicator(topology=topo)
    first, second = (comm.allreduce("1MiB", algorithm="butterfly") for _ in range(2))
    assert first.time_ns == second.time_ns
    assert first.traffic_bytes_hops == second.traffic_bytes_hops
    assert all(link.bytes_carried == 0 for link in topo.links())
    shared = Fabric(topology=topo).communicator().iallreduce("1MiB", algorithm="butterfly")
    assert shared.result().time_ns == first.time_ns


def test_standalone_network_schedule_is_a_one_tenant_fabric_run():
    """A lone communicator keeps planning the payload's host count (an
    8-row payload on a 16-host communicator wires an 8-host fat tree),
    and its result carries the fabric's tenant fields."""
    data = np.ones((8, 256), dtype=np.float32)
    result = Communicator(n_hosts=16).allreduce(data, algorithm="ring")
    assert result.n_hosts == 8
    np.testing.assert_array_equal(result.extra["output"], data.sum(axis=0))
    assert result.extra["tenant"] is None
    assert result.extra["fell_back"] is False


def test_standalone_switch_drivers_build_no_fabric(monkeypatch):
    """The single-switch runs stay off the network: a standalone
    flare_switch or flare_switch_sparse call builds no Fabric and no
    NetworkSimulator."""
    from repro.comm.fabric import Fabric
    from repro.network.simulator import NetworkSimulator

    built = []
    for cls in (Fabric, NetworkSimulator):
        init = cls.__init__

        def spy(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    comm = Communicator(n_hosts=4, n_clusters=1)
    comm.allreduce("4KiB", algorithm="flare_switch")
    comm.allreduce("8KiB", algorithm="flare_switch_sparse", sparse=True, density=0.1)
    assert built == []
    comm.allreduce("4KiB", algorithm="ring")
    assert built == ["Fabric", "NetworkSimulator"]


def test_sparse_switch_driver_matches_communicator():
    from repro.core.allreduce import plan_switch_allreduce

    direct = plan_switch_allreduce(
        "8KiB", density=0.1, children=4, n_clusters=1
    ).execute(seed=2)
    comm = Communicator(n_hosts=4, n_clusters=1)
    unified = comm.allreduce(
        "8KiB", algorithm="flare_switch_sparse", sparse=True, density=0.1, seed=2
    )
    assert unified.extra["feasible"] is True
    assert direct.makespan_cycles == unified.raw.makespan_cycles


# ----------------------------------------------------------------------
# Satellite validations
# ----------------------------------------------------------------------
def test_flare_config_rejects_unknown_feed_at_construction():
    from repro.core.config import FlareConfig

    with pytest.raises(ValueError, match="unknown feed policy"):
        FlareConfig(feed="bogus")
    with pytest.raises(ValueError, match="delta must be positive"):
        FlareConfig(feed=-1.0)
    assert FlareConfig(feed="line").delta > 0
    assert FlareConfig(feed=100.0).delta == 100.0


def test_scale_bandwidth_validates_target_clusters():
    from repro.core.allreduce import scale_bandwidth

    with pytest.raises(ValueError, match="target_clusters"):
        scale_bandwidth(1.0, 4, target_clusters=0)
    with pytest.raises(ValueError, match="sim_clusters"):
        scale_bandwidth(1.0, 0)
    assert scale_bandwidth(1.0, 4, target_clusters=8) == 2.0


@pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_tenant_weight_must_be_positive_and_finite(weight):
    # nan <= 0 is False: a plain sign check would let nan into WFQ tags.
    with pytest.raises(ValueError, match="positive and finite"):
        Communicator(n_hosts=8, weight=weight)
