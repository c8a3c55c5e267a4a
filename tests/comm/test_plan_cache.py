"""Plan/execute split: cache hits skip planning, LRU eviction works."""

import pytest

from repro.comm import (
    AlgorithmCaps,
    Communicator,
    PlanCache,
    PlannedExecution,
    register_algorithm,
    unregister_algorithm,
)
from repro.collectives.result import CollectiveResult


@pytest.fixture
def counting_algorithm():
    """Register an algorithm that counts planner and issuer invocations."""
    counts = {"planned": 0, "executed": 0}

    @register_algorithm(
        "test_counting",
        caps=AlgorithmCaps(dense=True, ops=("sum",), description="counter"),
    )
    def plan_counting(request):
        counts["planned"] += 1

        def issuer(ctx, payloads, overrides):
            counts["executed"] += 1
            ctx.finish(CollectiveResult(
                name="counting",
                n_hosts=request.n_hosts,
                vector_bytes=request.nbytes,
                time_ns=1.0,
                traffic_bytes_hops=0,
            ))

        return PlannedExecution(issuer, setup={"planned": True})

    yield counts
    unregister_algorithm("test_counting")


def test_cached_plan_skips_planning(counting_algorithm):
    comm = Communicator(n_hosts=4)
    for _ in range(5):
        comm.allreduce("1KiB", algorithm="test_counting")
    info = comm.cache_info()
    # Planning ran once; four executions were pure cache hits.
    assert counting_algorithm["planned"] == 1
    assert counting_algorithm["executed"] == 5
    assert info.misses == 1 and info.hits == 4
    assert comm.plans_built == 1


def test_shape_change_is_a_cache_miss(counting_algorithm):
    comm = Communicator(n_hosts=4)
    comm.allreduce("1KiB", algorithm="test_counting")
    comm.allreduce("2KiB", algorithm="test_counting")
    comm.allreduce("1KiB", algorithm="test_counting")   # back to cached shape
    assert counting_algorithm["planned"] == 2
    assert comm.cache_info().hits == 1


def test_plan_execute_counter(counting_algorithm):
    comm = Communicator(n_hosts=4)
    plan = comm.plan(nbytes="1KiB", algorithm="test_counting")
    assert plan.executions == 0
    plan.execute()
    plan.execute()
    assert plan.executions == 2
    # comm.allreduce of the same shape reuses the *same* plan object.
    comm.allreduce("1KiB", algorithm="test_counting")
    assert plan.executions == 3


def test_lru_eviction(counting_algorithm):
    comm = Communicator(n_hosts=4, plan_cache_size=2)
    comm.allreduce("1KiB", algorithm="test_counting")
    comm.allreduce("2KiB", algorithm="test_counting")
    comm.allreduce("3KiB", algorithm="test_counting")   # evicts 1KiB
    comm.allreduce("1KiB", algorithm="test_counting")   # replanned
    info = comm.cache_info()
    assert info.evictions >= 1
    assert counting_algorithm["planned"] == 4


def test_plan_cache_direct():
    cache = PlanCache(maxsize=2)
    built = []

    def make(tag):
        def factory():
            built.append(tag)
            return tag  # PlanCache is agnostic to the stored value

        return factory

    assert cache.get_or_build(("a",), make("a")) == "a"
    assert cache.get_or_build(("a",), make("a2")) == "a"
    assert built == ["a"]
    cache.get_or_build(("b",), make("b"))
    cache.get_or_build(("c",), make("c"))
    info = cache.info()
    assert info.currsize == 2 and info.evictions == 1
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_live_fingerprint_folds_failure_state():
    """``fingerprint()`` is structural (provenance identity, fabric
    matching); ``live_fingerprint()`` additionally keys on the current
    failure set — the plan-cache key must change when hardware dies."""
    from repro.network.topology import build_topology

    topo = build_topology("fat-tree", n_hosts=8, hosts_per_leaf=4, n_spines=2)
    structural = topo.fingerprint()
    healthy = topo.live_fingerprint()
    topo.fail_link("s0", "l0")
    assert topo.fingerprint() == structural
    assert topo.live_fingerprint() != healthy
    wounded = topo.live_fingerprint()
    topo.fail_switch("s1")
    assert topo.live_fingerprint() not in (healthy, wounded)
    topo.repair_switch("s1")
    assert topo.live_fingerprint() == wounded
    topo.repair_link("s0", "l0")
    assert topo.live_fingerprint() == healthy


def test_failed_switch_between_cached_calls_forces_replan():
    """Regression: the plan cache used to key on the *structural*
    topology fingerprint only, so failing a switch between two
    identical allreduces served the stale cached plan — whose
    aggregation tree routed through the dead switch.  The live
    fingerprint must force a replan that avoids it."""
    from repro.comm.fabric import Fabric

    # 3-level XGFT: hosts reach their leaf uniquely, but each leaf has
    # two mid-level parents — a mid switch can die without partitioning
    # anything, which is exactly the case a stale plan gets wrong.
    fabric = Fabric(
        topology="xgft",
        topology_params=dict(down=(2, 2, 2), up=(1, 2, 2)),
        n_hosts=8,
    )
    comm = fabric.communicator(name="t0")
    first = comm.allreduce("256KiB", algorithm="flare_dense")
    plan = comm.plan(nbytes="256KiB", algorithm="flare_dense")
    comm.allreduce("256KiB", algorithm="flare_dense")
    assert comm.cache_info().misses == 1   # second call was a pure hit

    victim = next(
        s for s in plan.setup["tree_switches"]
        if s.startswith("sw2_") and s != plan.setup["tree_root"]
    )
    fabric.topology.fail_switch(victim)

    replanned = comm.plan(nbytes="256KiB", algorithm="flare_dense")
    assert comm.cache_info().misses == 2   # stale plan NOT served
    assert victim not in replanned.setup["tree_switches"]
    result = comm.allreduce("256KiB", algorithm="flare_dense")
    assert result.time_ns > 0

    # Repair restores the original key: the healthy plan is still
    # cached and is hit again, not rebuilt.
    fabric.topology.repair_switch(victim)
    misses_before = comm.cache_info().misses
    again = comm.allreduce("256KiB", algorithm="flare_dense")
    assert comm.cache_info().misses == misses_before
    # Same plan, same schedule: identical duration up to float noise
    # from the later base time in the shared fabric loop.
    assert again.time_ns == pytest.approx(first.time_ns, rel=1e-9)


def test_switch_plan_reuse_is_consistent():
    """Re-executing a cached switch-level plan reproduces the result."""
    comm = Communicator(n_hosts=4, n_clusters=1)
    r1 = comm.allreduce("4KiB", algorithm="flare_switch", seed=5)
    r2 = comm.allreduce("4KiB", algorithm="flare_switch", seed=5)
    assert comm.cache_info().hits == 1
    assert r1.raw.makespan_cycles == r2.raw.makespan_cycles
    assert r1.raw.blocks_completed == r2.raw.blocks_completed
