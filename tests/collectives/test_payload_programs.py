"""Payload programs of the schedule interpreters.

Integer payloads under a builtin operator take the vectorized program:
one ufunc reduction at issue time, messages without data.  Everything
else replays the schedule's structural combine order message by
message.  The twin of each builtin-operator run is the same operator
wrapped as a custom :class:`ReductionOp`, which forces the replay: the
two must agree bitwise in their outputs and exactly in time and
traffic, standalone and as tenants of a WFQ overlap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.schedule import EXCHANGES, ExchangeTable, ring_steps
from repro.comm import Communicator, Fabric, wait_all
from repro.comm.plan import build_plan
from repro.comm.registry import get_algorithm
from repro.core.ops import BUILTIN_OPS, ReductionOp

TOPOLOGY = {"topology": "fat-tree",
            "topology_params": {"n_hosts": 8, "hosts_per_leaf": 4, "n_spines": 2}}
N_HOSTS, N_ELEMENTS = 8, 1024
#: Small chunks so every schedule moves several sub-chunks per step.
KNOBS = {
    "ring": {"sub_chunk_bytes": 1024},
    "swing": {"sub_chunk_bytes": 1024},
    "butterfly": {"sub_chunk_bytes": 1024},
    "rabenseifner": {"sub_chunk_bytes": 1024},
    "recursive_doubling": {"sub_chunk_bytes": 1024},
    "flare_dense": {"chunk_bytes": 1024},
    "flare_switch": {},
}
SCHEDULES = ("ring", "swing", "butterfly", "rabenseifner", "recursive_doubling",
             "flare_dense")
OPS = ("sum", "min", "max", "prod")
DTYPES = ("int32", "uint32")
#: 4-tenant WFQ overlaps: (algorithm, op, weight).  flare_switch has no
#: uint32 switch cost model, so its tenants always carry int32.
OVERLAPS = {
    "host": (("ring", "sum", 4.0), ("swing", "min", 2.0),
             ("butterfly", "max", 1.0), ("rabenseifner", "prod", 1.0)),
    "mixed": (("recursive_doubling", "prod", 4.0), ("flare_dense", "sum", 2.0),
              ("flare_switch", "max", 1.0), ("swing", "min", 1.0)),
    "trees": (("flare_switch", "sum", 4.0), ("butterfly", "prod", 2.0),
              ("flare_dense", "min", 1.0), ("ring", "max", 1.0)),
}


def twin(op: str) -> ReductionOp:
    """``op`` as a custom operator: same combine and cost, not a builtin."""
    builtin = BUILTIN_OPS[op]
    return ReductionOp(builtin.name, builtin.combine_into, builtin.cycles_factor)


def payloads(dtype: str, seed: int = 0) -> np.ndarray:
    """Full-range values, so sums and products wrap."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng([19, seed])
    return rng.integers(info.min, info.max, size=(N_HOSTS, N_ELEMENTS),
                        dtype=dtype, endpoint=True)


def reference(data: np.ndarray, op: str) -> np.ndarray:
    """Host-order fold with the operator's own combine."""
    acc = data[0].copy()
    for row in data[1:]:
        BUILTIN_OPS[op].combine_into(acc, row)
    return acc


def plan_for(comm, data, op, algorithm):
    """Plan ``algorithm`` straight from the registry: the host tables
    declare only ``sum`` and no custom operators, but their schedules
    run any operator."""
    request, arrays = comm.make_request(data, op=op, algorithm=algorithm,
                                        **KNOBS[algorithm])
    return build_plan(request, get_algorithm(algorithm)), arrays


def fabric() -> Fabric:
    return Fabric(**TOPOLOGY)


def assert_twins(vectorized, replayed, want):
    assert vectorized.extra["payload_program"] == "vectorized"
    assert replayed.extra["payload_program"] == "order-replay"
    for result in (vectorized, replayed):
        out = result.extra["output"]
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)
    assert vectorized.time_ns == replayed.time_ns
    assert vectorized.traffic_bytes_hops == replayed.traffic_bytes_hops


# ----------------------------------------------------------------------
# Parity: vectorized vs order replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("algorithm", SCHEDULES)
def test_vectorized_matches_replay_standalone(algorithm, dtype, op):
    comm = Communicator(**TOPOLOGY)
    data = payloads(dtype)
    runs = []
    for operator in (op, twin(op)):
        plan, arrays = plan_for(comm, data, operator, algorithm)
        runs.append(plan.execute(arrays))
    assert_twins(*runs, reference(data, op))


@pytest.mark.parametrize("op", OPS)
def test_vectorized_matches_replay_flare_switch_alone(op):
    data = payloads("int32")
    runs = []
    for operator in (op, twin(op)):
        fab = fabric()
        plan, arrays = plan_for(fab.communicator(name="t"), data, operator,
                                "flare_switch")
        future = fab.issue(fab.communicator(name="u"), plan, arrays)
        runs.append(future.result())
    assert_twins(*runs, reference(data, op))


def _overlap(dtype, tenants, custom):
    fab = fabric()
    try:
        futures, wants = [], []
        for i, (algorithm, op, weight) in enumerate(tenants):
            comm = fab.communicator(name=f"tenant{i}", weight=weight)
            data = payloads("int32" if algorithm == "flare_switch" else dtype, i)
            plan, arrays = plan_for(comm, data, twin(op) if custom else op,
                                    algorithm)
            futures.append(fab.issue(comm, plan, arrays, tenant=comm.name,
                                     weight=weight))
            wants.append(reference(data, op))
        return wait_all(futures), wants
    finally:
        fab.shutdown()


@pytest.mark.parametrize("overlap", sorted(OVERLAPS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_vectorized_matches_replay_in_wfq_overlap(dtype, overlap):
    tenants = OVERLAPS[overlap]
    vectorized, wants = _overlap(dtype, tenants, custom=False)
    replayed, _ = _overlap(dtype, tenants, custom=True)
    for fast, replay, want in zip(vectorized, replayed, wants):
        assert_twins(fast, replay, want)


def test_float_payloads_replay():
    data = payloads("int32").astype(np.float32)
    result = Communicator(**TOPOLOGY).allreduce(data, algorithm="swing")
    assert result.extra["payload_program"] == "order-replay"
    assert "payload_program" not in Communicator(**TOPOLOGY).allreduce(
        N_ELEMENTS * 4, algorithm="swing"
    ).extra


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ("int32", "float32"))
@pytest.mark.parametrize("algorithm", ("ring", "butterfly", "flare_dense"))
def test_payloads_are_snapshot_at_issue(algorithm, dtype):
    data = payloads("int32").astype(dtype)
    want = fabric().communicator(name="t").allreduce(
        data.copy(), algorithm=algorithm
    ).extra["output"]
    fab = fabric()
    future = fab.communicator(name="t").iallreduce(data, algorithm=algorithm)
    data[:] = 0
    fab.run()
    np.testing.assert_array_equal(future.result().extra["output"], want)


@pytest.mark.parametrize(
    "algorithm", ("ring", "swing", "butterfly", "flare_dense", "flare_switch")
)
def test_lossy_duplicating_links_keep_int_outputs(algorithm):
    fab = fabric()
    fab.inject(link="*", kind="lossy", loss_rate=0.1, duplicate_rate=0.1, seed=5)
    data = payloads("int32")
    result = fab.communicator(name="t").allreduce(data, algorithm=algorithm,
                                                  **KNOBS[algorithm])
    assert result.extra["payload_program"] == "vectorized"
    assert result.extra["drops"] > 0 and result.extra["duplicates"] > 0
    np.testing.assert_array_equal(result.extra["output"], reference(data, "sum"))


@pytest.mark.parametrize("algorithm", ("flare_dense", "flare_switch"))
def test_link_down_replan_keeps_int_outputs(algorithm):
    fab = fabric()
    data = payloads("int32")
    future = fab.communicator(name="t").iallreduce(data, algorithm=algorithm)
    fab.inject(link="l1-s0", at=500.0, kind="down")
    result = future.result()
    assert result.extra["recoveries"]
    assert result.extra["payload_program"] == "vectorized"
    np.testing.assert_array_equal(result.extra["output"], reference(data, "sum"))


def test_switch_down_fallback_keeps_int_outputs():
    fab = Fabric(n_hosts=16, hosts_per_leaf=4, n_spines=2,
                 max_allreduces_per_switch=1)
    fab.communicator(name="hog").iallreduce(
        "4MiB", algorithm="flare_dense", tree_root="s1",
        hosts=[f"h{i}" for i in range(8, 16)],
    )
    data = payloads("int32")
    future = fab.communicator(name="t").iallreduce(
        data, algorithm="flare_dense", tree_root="s0",
        hosts=[f"h{i}" for i in range(8)],
    )
    fab.inject(switch="s0", at=2_000.0, kind="down")
    result = future.result()
    assert result.algorithm == "rabenseifner"
    assert result.extra["payload_program"] == "vectorized"
    np.testing.assert_array_equal(result.extra["output"], reference(data, "sum"))


def test_payload_validation_errors_are_unchanged():
    comm = Communicator(**TOPOLOGY)
    plan, arrays = plan_for(comm, payloads("int32"), "sum", "ring")
    with pytest.raises(ValueError, match="got 7 payloads for 8 hosts"):
        plan.execute(arrays[:7])
    with pytest.raises(ValueError, match="was sized for 4096 B"):
        plan.execute(arrays[:, :512])


def test_coverage_proof_rejects_a_broken_table(monkeypatch):
    """Ring without its last allgather step leaves one block a step
    short on every rank: the table must not build."""
    monkeypatch.setitem(EXCHANGES, "ring", (lambda p: ring_steps(p)[:-1], True))
    with pytest.raises(ValueError, match="ends without the contributions"):
        ExchangeTable("ring", [f"h{i}" for i in range(4)], 4096.0)


def test_coverage_proof_rejects_a_shared_double_count(monkeypatch):
    """Repeating a reduce-scatter step double counts on every host
    alike: comparing the hosts' results could not catch it."""
    steps = EXCHANGES["recursive_doubling"][0]
    monkeypatch.setitem(EXCHANGES, "recursive_doubling",
                        (lambda p: steps(p) + steps(p)[:1], False))
    with pytest.raises(ValueError, match="twice"):
        ExchangeTable("recursive_doubling", [f"h{i}" for i in range(4)], 4096.0)
