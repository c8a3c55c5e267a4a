"""Admission-queue drain: one probe per request shape per scan.

The queue groups entries by admission shape and probes only the group
heads.  The oracle below is the full scan: every queued entry probed in
``(vft, seq)`` order (FIFO: the head), one ``plan`` + ``would_admit``
round trip each.  Every variant must produce the identical run, down to
each collective's start and finish.
"""

import pytest

from repro.comm.fabric import Fabric
from repro.core.manager import AdmissionError
from repro.service import FabricService, TraceWorkload

#: Enough tenants that a queue forms at ``max_allreduces_per_switch=2``.
TENANTS = 48


def _make_trace(n_tenants: int) -> dict:
    """A burst of ``n_tenants`` 8-host 256 KiB training jobs, two QoS
    classes, arrivals 1 us apart so concurrency ~= the tenant count."""
    return {
        "schema_version": 1,
        "classes": {"prod": {"weight": 4.0}, "batch": {"weight": 1.0}},
        "jobs": [
            {
                "tenant": "prod" if i % 2 == 0 else "batch",
                "arrival": float(i * 1_000.0),
                "size": 256.0 * 1024,
                "algorithm": "flare_dense" if i % 2 == 0 else "ring",
                "gap": 20_000.0,
                "iterations": 2,
                "n_hosts": 8,
            }
            for i in range(n_tenants)
        ],
    }


def _full_scan(queue, admittable):
    """The first admittable entry of a scan over every waiting entry."""
    waiting = queue.waiting()
    if queue.policy == "fifo":
        waiting = waiting[:1]
    else:
        waiting.sort(key=lambda q: (q.vft, q.seq))
    for entry in waiting:
        if admittable(entry.job):
            return entry
    return None


class _PerEntryProbe(FabricService):
    """Oracle: probe every queued entry in full order, no shape groups."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue.next_admittable = lambda admittable: _full_scan(
            self.queue, admittable
        )

    def _admittable(self, job) -> bool:
        comm = self._comms[job.tenant_class]
        plan = comm.plan(nbytes=job.nbytes, **self._request_kwargs(job))
        return self.fabric.would_admit(plan, tenant=comm.name) is None


VARIANTS = {
    "wfq": dict(policy="wfq", fabric=dict(n_hosts=32, max_allreduces_per_switch=2)),
    "fifo": dict(policy="fifo", fabric=dict(n_hosts=32, max_allreduces_per_switch=2)),
    "quota": dict(
        policy="wfq",
        fabric=dict(n_hosts=32, max_allreduces_per_switch=8, tenant_quota=1),
    ),
    # 8-host jobs span two leaves, so their trees aggregate at a spine;
    # losing s0 mid-run forces recoveries, fallbacks and switch_down
    # probe answers until the repair.
    "switch-fault": dict(
        policy="wfq",
        fabric=dict(
            n_hosts=32, hosts_per_leaf=4, n_spines=2, max_allreduces_per_switch=2
        ),
        fault=dict(switch="s0", at=100_000.0, kind="down", duration_ns=200_000.0),
    ),
    "link-fault": dict(
        policy="wfq",
        fabric=dict(
            n_hosts=32, hosts_per_leaf=4, n_spines=2, max_allreduces_per_switch=2
        ),
        fault=dict(link="l0-s0", at=40_000.0, kind="down"),
    ),
}


def _service(cls, variant):
    spec = VARIANTS[variant]
    fabric = Fabric(**spec["fabric"])
    if "fault" in spec:
        fabric.inject(**spec["fault"])
    return cls(
        fabric, TraceWorkload(_make_trace(TENANTS)), queue_policy=spec["policy"]
    )


def _observables(service) -> dict:
    return {
        "stats": service.stats.to_state(),
        "queue": service.queue.to_state(),
        "timeline": [
            (e["flow"], e["algorithm"], e["start_ns"], e["finish_ns"])
            for e in service.fabric.timeline()
        ],
        "now_ns": service.fabric.now,
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_memoized_drain_matches_per_entry_oracle(variant):
    oracle = _service(_PerEntryProbe, variant)
    oracle_report = oracle.run()
    service = _service(FabricService, variant)
    report = service.run()

    assert report["jobs"]["completed"] == TENANTS
    assert report["starved_jobs"] == []
    assert service.queue.enqueued > 0             # the queue really formed
    assert _observables(service) == _observables(oracle)
    for key in ("classes", "fairness", "queue", "faults"):
        assert report[key] == oracle_report[key]
    if "fault" in VARIANTS[variant]:
        assert any(ev.get("event") == "fault" for ev in report["faults"])
    # Probing group heads is the only difference: no more plan-cache
    # lookups.
    assert report["plan_cache"]["hits"] <= oracle_report["plan_cache"]["hits"]
    assert report["plan_cache"]["hit_rate"] > 0.5


@pytest.mark.parametrize("variant", ["wfq", "fifo", "switch-fault"])
def test_each_scan_plans_each_shape_at_most_once(variant):
    service = _service(FabricService, variant)
    scan = {"shapes": None, "planned": None}
    scans = []

    def counted_plan(comm, plan):
        def wrapper(*args, **kwargs):
            if scan["shapes"] is not None:
                scan["planned"].append((comm.name, *sorted(kwargs.items())))
            return plan(*args, **kwargs)
        return wrapper

    for comm in service._comms.values():
        comm.plan = counted_plan(comm, comm.plan)
    find = service.queue.next_admittable

    def scanning_find(admittable):
        waiting = service.queue.waiting()
        depth = len(waiting)
        scan["shapes"] = {
            (q.job.tenant_class, q.job.nbytes,
             *service._request_kwargs(q.job).items())
            for q in waiting
        }
        scan["planned"] = []
        try:
            return find(admittable)
        finally:
            scans.append((depth, scan["shapes"], scan["planned"]))
            scan["shapes"] = None

    service.queue.next_admittable = scanning_find
    report = service.run()
    assert report["jobs"]["completed"] == TENANTS

    assert scans
    for _depth, shapes, planned in scans:
        assert len(planned) == len(set(planned))      # no shape twice
        assert len(planned) <= len(shapes)
    # The groups had something to save: some scans saw more queued
    # entries than distinct shapes.
    assert any(depth > len(shapes) for depth, shapes, _ in scans)


class _DrainLog(FabricService):
    """Logs each pool-release callback, so a test can see where a drain
    ends."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, **kwargs)

    def _on_pool_release(self) -> None:
        self.log.append(("release", self.fabric.now))
        super()._on_pool_release()


def test_failed_issue_leaves_queue_unchanged_and_ends_drain():
    # The probe admits a queued job but its iallreduce then raises
    # AdmissionError (the two disagree).  The attempt must leave the
    # queue and the job exactly as they were (original enqueue time,
    # no wait sample) and end the drain instead of finding the same
    # entry again at the same instant.
    service = _service(_DrainLog, "wfq")
    find = service.queue.next_admittable

    def logged_find(admittable):
        entry = find(admittable)
        service.log.append(("find", entry, service.fabric.now))
        return entry

    service.queue.next_admittable = logged_find
    comm = service._comms["prod"]
    real_iallreduce = comm.iallreduce
    failed = {}

    def state(job):
        return (
            service.queue.to_state(), job.status,
            list(job.queue_waits_ns), job.first_issue_ns,
        )

    def flaky_iallreduce(*args, **kwargs):
        if not failed and service._draining:
            _, entry, now = service.log[-1]
            failed.update(entry=entry, at=now, before=state(entry.job))
            service.log.append(("fail",))
            exc = AdmissionError("forced probe/issue disagreement")
            exc.resource = "slots"
            raise exc
        return real_iallreduce(*args, **kwargs)

    comm.iallreduce = flaky_iallreduce
    issue = service._issue

    def checked_issue(job, entry=None):
        issued = issue(job, entry)
        if not issued:
            failed["after"] = state(job)
        return issued

    service._issue = checked_issue
    report = service.run()

    assert failed, "the drain never issued a queued job"
    assert report["jobs"]["completed"] == TENANTS
    assert report["starved_jobs"] == []
    assert failed["after"] == failed["before"]
    # The drain stopped at the failure; the next scan came from a later
    # pool release.
    i = service.log.index(("fail",))
    assert service.log[i + 1][0] == "release"
    # The same entry was found again later and issued from its original
    # enqueue time.
    entry, job = failed["entry"], failed["entry"].job
    finds = [
        (rec[1], rec[2]) for rec in service.log
        if rec[0] == "find" and rec[1] is not None and rec[1].job is job
    ]
    retry_times = [t for e, t in finds if e is entry]
    assert len(retry_times) == 2                 # the failed find + the retry
    assert retry_times[0] == failed["at"] < retry_times[1]
    # Only the successful issues recorded waits, each measured from its
    # entry's original enqueue time.
    issued = [(e, t) for e, t in finds if (e, t) != (entry, failed["at"])]
    assert job.queue_waits_ns == [t - e.enqueued_ns for e, t in issued]
    # No double counting in the queue either.
    q = service.queue
    assert q.enqueued == q.dequeued == len(q.wait_samples_ns)


def test_one_release_issues_every_entry_it_makes_admittable():
    # An 8-host job spans both leaves and holds their only slot.  Two
    # 4-host jobs, packed one per leaf, queue behind it.  Its release
    # frees both leaves at once, so both must be issued at that instant
    # rather than the second waiting for the first one's release.
    trace = {
        "schema_version": 1,
        "classes": {"t": {"weight": 1.0}},
        "jobs": [
            {"tenant": "t", "arrival": float(i * 1000), "size": size,
             "algorithm": "flare_dense", "iterations": 1, "n_hosts": n_hosts}
            for i, (size, n_hosts) in enumerate(
                [("1MiB", 8), ("256KiB", 4), ("256KiB", 4)]
            )
        ],
    }
    fabric = Fabric(
        n_hosts=8, hosts_per_leaf=4, n_spines=1, max_allreduces_per_switch=1
    )
    service = FabricService(fabric, TraceWorkload(trace))
    report = service.run()

    assert report["starved_jobs"] == []
    wide, left, right = sorted(service._jobs_by_id.values(), key=lambda j: j.job_id)
    assert {left.hosts, right.hosts} == {("h0", "h1", "h2", "h3"), ("h4", "h5", "h6", "h7")}
    assert service.queue.reason_counts == {"slots": 2}
    assert left.first_issue_ns == right.first_issue_ns == wide.finish_ns
