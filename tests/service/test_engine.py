"""FabricService end-to-end: arrivals, queueing, SLOs, starvation."""

import pytest

from repro.comm.fabric import Fabric, TIMELINE_SCHEMA_VERSION
from repro.service import (
    FabricService,
    PoissonWorkload,
    TenantClass,
    TraceWorkload,
)


def _poisson(duration_ns=2e6, **kw):
    classes = [
        TenantClass("prod", weight=4.0, rate_per_s=2000.0, nbytes=1 << 20,
                    n_hosts=8, iterations=3, gap_ns=20_000.0,
                    algorithm="flare_dense"),
        TenantClass("batch", weight=1.0, rate_per_s=500.0, nbytes=4 << 20,
                    n_hosts=8, iterations=2, gap_ns=50_000.0,
                    algorithm="ring"),
    ]
    return PoissonWorkload(classes, seed=7, duration_ns=duration_ns, **kw)


def _burst_trace(n_jobs, *, size=1 << 18, algorithm="flare_dense", n_hosts=8):
    return {
        "schema_version": 1,
        "classes": {"prod": {"weight": 4.0}, "batch": {"weight": 1.0}},
        "jobs": [
            {"tenant": "prod" if i % 2 == 0 else "batch",
             "arrival": float(i * 100.0), "size": float(size),
             "algorithm": algorithm, "gap": 10_000.0, "iterations": 2,
             "n_hosts": n_hosts}
            for i in range(n_jobs)
        ],
    }


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------
def test_poisson_service_completes_every_job():
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=2)
    service = FabricService(
        fabric, _poisson(), snapshot_interval_ns=1e6
    )
    report = service.run()
    assert report["jobs"]["completed"] == report["jobs"]["arrived"] > 0
    assert report["starved_jobs"] == []
    assert 0.0 < report["fairness"] <= 1.0
    assert report["schema_version"] == TIMELINE_SCHEMA_VERSION
    assert len(report["snapshots"]) >= 1
    prod = report["classes"]["prod"]
    assert prod["p50_ns"] <= prod["p95_ns"] <= prod["p99_ns"]
    assert report["plan_cache"]["hit_rate"] > 0.5
    assert fabric.in_flight == 0


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), -5.0, 0.0])
def test_snapshot_interval_must_be_positive_and_finite(interval):
    # NaN used to finish with now_ns = NaN, inf with now_ns = inf, and
    # -5 failed only inside run().
    with pytest.raises(ValueError, match="snapshot_interval_ns"):
        FabricService(
            Fabric(n_hosts=8), _poisson(), snapshot_interval_ns=interval
        )


def test_service_is_deterministic():
    def run():
        fabric = Fabric(n_hosts=32, max_allreduces_per_switch=2)
        report = FabricService(fabric, _poisson()).run()
        return (report["now_ns"], report["fairness"],
                report["classes"]["prod"]["p99_ns"])

    assert run() == run()


def test_trace_service_runs_on_dragonfly():
    fabric = Fabric(
        topology="dragonfly",
        topology_params=dict(
            n_groups=4, routers_per_group=3, hosts_per_router=2
        ),
        max_allreduces_per_switch=2,
    )
    report = FabricService(
        fabric, TraceWorkload(_burst_trace(6, n_hosts=4))
    ).run()
    assert report["jobs"]["completed"] == 6
    assert report["starved_jobs"] == []


# ----------------------------------------------------------------------
# Queueing behaviour
# ----------------------------------------------------------------------
def test_tight_pools_queue_instead_of_erroring():
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=1)
    report = FabricService(
        fabric, TraceWorkload(_burst_trace(12))
    ).run()
    assert report["jobs"]["completed"] == 12
    assert report["queue"]["enqueued"] > 0
    assert report["queue"]["reasons"].get("slots", 0) > 0
    assert report["queue"]["mean_wait_ns"] > 0
    assert report["queue"]["depth"] == 0          # fully drained
    assert report["starved_jobs"] == []


@pytest.mark.parametrize("policy", ["wfq", "fifo"])
def test_both_queue_policies_complete(policy):
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=1)
    report = FabricService(
        fabric, TraceWorkload(_burst_trace(8)), queue_policy=policy
    ).run()
    assert report["jobs"]["completed"] == 8
    assert report["queue"]["policy"] == policy


def test_queue_wait_counts_into_iteration_time():
    # Serialized by a one-slot pool, later jobs' iteration times include
    # their queue wait: p99 across jobs must exceed the uncontended p50.
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=1)
    report = FabricService(fabric, TraceWorkload(_burst_trace(8))).run()
    prod = report["classes"]["prod"]
    assert prod["p99_ns"] > prod["p50_ns"]


def test_quota_rejections_queue_with_reason():
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=8, tenant_quota=1)
    report = FabricService(fabric, TraceWorkload(_burst_trace(8))).run()
    assert report["jobs"]["completed"] == 8
    assert report["queue"]["reasons"].get("quota", 0) > 0


# ----------------------------------------------------------------------
# Starvation
# ----------------------------------------------------------------------
def test_impossible_demand_reported_as_starved_not_hung():
    # Switch memory can never fit the job: the queue holds it, the loop
    # drains, and the report names the starved job and its reason.
    fabric = Fabric(
        n_hosts=32, max_allreduces_per_switch=2, switch_memory_bytes=1024.0
    )
    report = FabricService(
        fabric, TraceWorkload(_burst_trace(2, size=1 << 20))
    ).run()
    assert len(report["starved_jobs"]) == 2
    assert {s["reason"] for s in report["starved_jobs"]} == {"memory"}
    assert report["jobs"]["completed"] == 0


# ----------------------------------------------------------------------
# Placement wiring
# ----------------------------------------------------------------------
def test_placed_jobs_release_occupancy():
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=4)
    service = FabricService(fabric, TraceWorkload(_burst_trace(4)))
    service.run()
    assert all(v == 0 for v in service.occupancy.values())


def test_spread_and_pack_place_differently_under_load():
    def hosts_spanned(policy):
        fabric = Fabric(n_hosts=32, max_allreduces_per_switch=4)
        service = FabricService(
            fabric, TraceWorkload(_burst_trace(2)), scheduler=policy
        )
        seen = []
        original = service.scheduler.place

        def spy(*args, **kw):
            placed = original(*args, **kw)
            seen.append(placed)
            return placed

        service.scheduler.place = spy
        service.run()
        return seen

    pack = hosts_spanned("pack")
    spread = hosts_spanned("spread")
    assert pack and spread and pack[0] != spread[0]


def test_slo_out_writes_json(tmp_path):
    import json

    out = tmp_path / "slo.json"
    fabric = Fabric(n_hosts=32, max_allreduces_per_switch=2)
    FabricService(fabric, TraceWorkload(_burst_trace(2))).run(
        slo_out=str(out)
    )
    data = json.loads(out.read_text())
    assert data["schema_version"] == TIMELINE_SCHEMA_VERSION
    assert data["jobs"]["completed"] == 2
