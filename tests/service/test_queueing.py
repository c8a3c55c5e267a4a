"""Admission queue disciplines: FIFO head-of-line vs weighted-fair."""

import pytest

from repro.service import AdmissionQueue
from repro.service.workload import Job


def _job(job_id, nbytes=1024.0, cls="t"):
    return Job(
        job_id=job_id, tenant_class=cls, arrival_ns=0.0, nbytes=nbytes,
        n_hosts=None, iterations=1, gap_ns=0.0,
    )


def _push(q, job, *, cls="t", weight=1.0, now=0.0, reason="slots"):
    q.push(job, tenant_class=cls, weight=weight, now=now, reason=reason)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="queue policy"):
        AdmissionQueue("lifo")


def test_fifo_preserves_arrival_order():
    q = AdmissionQueue("fifo")
    for i in range(3):
        _push(q, _job(i), now=float(i))
    order = [q.pop_admittable(lambda j: True, 10.0).job.job_id for _ in range(3)]
    assert order == [0, 1, 2]


def test_fifo_head_of_line_blocks():
    # Head not admittable -> nothing dequeues, even though job 1 could.
    q = AdmissionQueue("fifo")
    _push(q, _job(0))
    _push(q, _job(1))
    assert q.pop_admittable(lambda j: j.job_id == 1, 0.0) is None
    assert len(q) == 2


def test_wfq_skips_blocked_entries():
    q = AdmissionQueue("wfq")
    _push(q, _job(0))
    _push(q, _job(1))
    entry = q.pop_admittable(lambda j: j.job_id == 1, 0.0)
    assert entry.job.job_id == 1
    assert len(q) == 1


def test_wfq_heavy_class_drains_proportionally_faster():
    # Equal bytes; the 4x-weight class accrues vft 4x slower, so its
    # backlog interleaves 4:1 ahead of the 1x class.
    q = AdmissionQueue("wfq")
    for i in range(4):
        _push(q, _job(i, cls="prod"), cls="prod", weight=4.0)
    for i in range(4, 8):
        _push(q, _job(i, cls="batch"), cls="batch", weight=1.0)
    order = [
        q.pop_admittable(lambda j: True, 0.0).job.tenant_class
        for _ in range(8)
    ]
    assert order[:5] == ["prod", "prod", "prod", "prod", "batch"]


def test_wfq_light_class_not_starved():
    # vnow advances with dequeues, so a light class parked early cannot
    # be leapfrogged forever by later heavy arrivals.
    q = AdmissionQueue("wfq")
    _push(q, _job(0, cls="light"), cls="light", weight=1.0)
    for i in range(1, 9):
        _push(q, _job(i, cls="heavy"), cls="heavy", weight=8.0)
    drained = [
        q.pop_admittable(lambda j: True, 0.0).job.tenant_class
        for _ in range(9)
    ]
    assert "light" in drained[:8]


def test_wfq_ties_break_by_sequence():
    q = AdmissionQueue("wfq")
    _push(q, _job(0, cls="a"), cls="a")
    _push(q, _job(1, cls="b"), cls="b")
    # Same bytes, same weight, fresh class vfts -> identical vft; the
    # earlier enqueue wins.
    assert q.pop_admittable(lambda j: True, 0.0).job.job_id == 0


def test_counters_and_wait_samples():
    q = AdmissionQueue("wfq")
    _push(q, _job(0), now=100.0, reason="slots")
    _push(q, _job(1), now=200.0, reason="memory")
    q.sample_depth()
    entry = q.pop_admittable(lambda j: True, 500.0)
    assert entry.enqueued_ns == 100.0
    assert q.enqueued == 2 and q.dequeued == 1
    assert q.wait_samples_ns == [400.0]
    assert q.depth_samples == [2]
    assert q.reason_counts == {"slots": 1, "memory": 1}
    assert [e.job.job_id for e in q.waiting()] == [1]
    assert q.depth == 1


def test_pop_on_empty_returns_none():
    q = AdmissionQueue("fifo")
    assert q.pop_admittable(lambda j: True, 0.0) is None


@pytest.mark.parametrize("policy", ["fifo", "wfq"])
def test_next_admittable_leaves_queue_unchanged_until_remove(policy):
    # A found entry whose issue is then refused needs no undo: finding
    # changes nothing, and only remove() dequeues.
    q = AdmissionQueue(policy)
    _push(q, _job(0, cls="a"), cls="a", weight=4.0, now=10.0)
    _push(q, _job(1, cls="b"), cls="b", weight=1.0, now=20.0)
    _push(q, _job(2, cls="a"), cls="a", weight=4.0, now=30.0)
    before = q.to_state()
    entry = q.next_admittable(lambda j: True)
    assert q.to_state() == before
    assert q.next_admittable(lambda j: True) is entry
    q.remove(entry, 600.0)
    assert q.dequeued == 1
    assert q.wait_samples_ns == [600.0 - entry.enqueued_ns]
    assert entry not in q.waiting()
