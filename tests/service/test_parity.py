"""Single-tenant parity: service mode == direct Communicator.allreduce.

The acceptance pin for the whole service layer: a lone full-fabric job
run through FabricService must produce a makespan identical to the same
allreduce issued directly into a fabric, because the engine adds no
placement params, no queueing, and no extra events around an
uncontended job.  (Directly into a fabric, not standalone: ``auto``
picks flare_switch, whose standalone run is the single-switch PsPIN
simulation rather than its fabric tree schedule.)
"""

import pytest

from repro.comm import Communicator
from repro.comm.fabric import Fabric
from repro.service import FabricService, TraceWorkload

SHAPE = dict(n_hosts=16, hosts_per_leaf=8, n_spines=2)


def _single_job_trace(algorithm, size="2MiB"):
    return {
        "schema_version": 1,
        "classes": {"solo": {"weight": 1.0}},
        "jobs": [
            {"tenant": "solo", "arrival": 0.0, "size": size,
             "algorithm": algorithm, "iterations": 1}
        ],
    }


@pytest.mark.parametrize("algorithm", ["flare_dense", "ring", "auto"])
def test_single_tenant_makespan_identical(algorithm):
    direct = Fabric(**SHAPE).communicator().allreduce("2MiB", algorithm=algorithm)

    fabric = Fabric(**SHAPE)
    service = FabricService(
        fabric, TraceWorkload(_single_job_trace(algorithm))
    )
    report = service.run()

    assert report["jobs"]["completed"] == 1
    [entry] = fabric.timeline()
    assert entry["algorithm"] == direct.algorithm
    assert entry["finish_ns"] - entry["start_ns"] == pytest.approx(
        direct.time_ns
    )
    # The single iteration's completion time IS the direct makespan
    # (arrival at t=0, no queueing, no placement).
    cls = report["classes"]["solo"]
    assert cls["p50_ns"] == pytest.approx(direct.time_ns)
    assert cls["p99_ns"] == pytest.approx(direct.time_ns)


def test_single_tenant_request_carries_no_placement():
    # The parity mechanism itself: a full-fabric job's request params
    # must not contain a "hosts" key (hosts=None jobs skip placement).
    fabric = Fabric(**SHAPE)
    service = FabricService(
        fabric, TraceWorkload(_single_job_trace("flare_dense"))
    )
    job = service.workload.jobs()[0]
    assert job.n_hosts is None
    assert "hosts" not in service._request_kwargs(job)


def test_explicit_full_fabric_job_also_parity():
    # n_hosts == fabric size: placement short-circuits to every host in
    # canonical order, still byte-identical to the direct request.
    direct = Communicator(**SHAPE).allreduce("1MiB", algorithm="flare_dense")
    trace = _single_job_trace("flare_dense", size="1MiB")
    trace["jobs"][0]["n_hosts"] = SHAPE["n_hosts"]
    fabric = Fabric(**SHAPE)
    report = FabricService(fabric, TraceWorkload(trace)).run()
    assert report["classes"]["solo"]["p50_ns"] == pytest.approx(direct.time_ns)
