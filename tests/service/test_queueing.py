"""Admission queue disciplines: FIFO head-of-line vs weighted-fair."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# Shape groups against the full scan
# ----------------------------------------------------------------------
class _Reference:
    """The queue as a flat list: vft stamped as at enqueue, every entry
    probed in full ``(vft, seq)`` order (FIFO: the head only)."""

    def __init__(self, policy):
        self.policy = policy
        self.entries = []       # (vft, seq, job_id)
        self.class_vft = {}
        self.vnow = 0.0
        self.seq = 0

    def push(self, job_id, cls, nbytes, weight):
        vft = max(self.class_vft.get(cls, 0.0), self.vnow) + nbytes / weight
        self.class_vft[cls] = vft
        self.entries.append((vft, self.seq, job_id))
        self.seq += 1

    def find(self, admittable):
        order = self.entries[:1] if self.policy == "fifo" else sorted(self.entries)
        for entry in order:
            if admittable(entry[2]):
                return entry
        return None

    def remove(self, entry):
        self.entries.remove(entry)
        self.vnow = max(self.vnow, entry[0])


@pytest.mark.parametrize("policy", ["fifo", "wfq"])
@settings(max_examples=100)
@given(data=st.data())
def test_grouped_scan_matches_full_scan(policy, data):
    n_classes = data.draw(st.integers(2, 3), label="classes")
    n_shapes = data.draw(st.integers(1, 5), label="shapes")
    weights = data.draw(
        st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=n_classes,
                 max_size=n_classes),
        label="weights",
    )
    q = AdmissionQueue(policy)
    ref = _Reference(policy)
    jobs, shapes = {}, {}     # job id -> Job, and -> shape (None: own group)
    step = st.one_of(
        st.tuples(
            st.just("push"), st.integers(0, n_classes - 1),
            st.one_of(st.none(), st.integers(0, n_shapes - 1)),
            st.sampled_from([0.0, 1024.0, 4096.0]),
        ),
        st.tuples(st.just("find"), st.booleans()),
        st.tuples(st.just("roundtrip")),
    )
    for op in data.draw(st.lists(step, min_size=8, max_size=40), label="ops"):
        if op[0] == "push":
            _, c, shape, nbytes = op
            job_id = len(jobs)
            jobs[job_id] = _job(job_id, nbytes=nbytes, cls=f"c{c}")
            shapes[job_id] = shape
            q.push(
                jobs[job_id], tenant_class=f"c{c}", weight=weights[c],
                now=float(job_id), reason="slots", shape=shape,
            )
            ref.push(job_id, f"c{c}", nbytes, weights[c])
        elif op[0] == "find":
            # Admission is a function of (class, shape); a shapeless
            # entry answers for itself.
            pairs = [(f"c{c}", s) for c in range(n_classes) for s in range(n_shapes)]
            open_shapes = data.draw(st.sets(st.sampled_from(pairs)), label="open")
            open_loners = data.draw(st.sets(st.sampled_from(sorted(jobs) or [0])))
            probed = []

            def admittable(job):
                shape = shapes[job.job_id]
                if shape is None:
                    return job.job_id in open_loners
                probed.append((job.tenant_class, shape))
                return (job.tenant_class, shape) in open_shapes

            def ref_admittable(job_id):
                shape = shapes[job_id]
                if shape is None:
                    return job_id in open_loners
                return (jobs[job_id].tenant_class, shape) in open_shapes

            found = q.next_admittable(admittable)
            expected = ref.find(ref_admittable)
            assert len(probed) == len(set(probed))     # one probe per shape
            if expected is None:
                assert found is None
                continue
            assert (found.vft, found.seq, found.job.job_id) == expected
            if op[1]:
                q.remove(found, 100.0)
                ref.remove(expected)
        else:
            state = q.to_state()
            q = AdmissionQueue(policy)
            q.from_state(state, jobs.__getitem__, lambda job: shapes[job.job_id])
            assert q.to_state() == state
        assert len(q) == len(ref.entries)
        assert [e.job.job_id for e in q.waiting()] == [e[2] for e in ref.entries]
