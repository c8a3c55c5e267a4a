"""Admission queueing in front of the switch pools.

The fabric's own admission path (:class:`repro.core.manager.
NetworkManager`) answers *now or never*: a collective that cannot get
its switch slots is rejected (and falls back host-based).  A service
cannot live with never — jobs should *wait* for pool capacity instead
of erroring or silently degrading — so the engine parks rejected
iterations in an :class:`AdmissionQueue` and retries them whenever pool
resources are released.

Two dequeue disciplines:

* ``"fifo"`` — strict arrival order with head-of-line blocking: the
  head waits for its resources even if a later job could be admitted
  now.  Simple, starvation-free within one resource class, and the
  right baseline for measuring what WFQ buys.
* ``"wfq"`` — weighted start-time fair queueing over tenant classes:
  each entry gets a virtual finish time ``vft = max(class_vft, vnow) +
  nbytes / weight`` at enqueue, and the *admittable* entry with the
  smallest vft dequeues first.  Heavy classes drain proportionally
  faster; light classes still make progress (their vft grows slower
  per byte, so they cannot be starved by a firehose class).

Entries are grouped by admission *shape*: a hashable key, given at
push, such that every entry of one shape gets the same admission
answer.  Within one tenant class vft never falls as seq rises, so each
group (kept in seq order) has its smallest ``(vft, seq)`` at its head,
and a WFQ scan only orders and probes the group heads — once per
shape, not once per waiting entry.  An entry pushed without a shape is
a group of its own.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, Hashable, Optional

#: WFQ dequeue order: smallest virtual finish time, ties by enqueue order.
_FAIR_ORDER = attrgetter("vft", "seq")
_SEQ = attrgetter("seq")


class QueuedJob:
    """One iteration waiting for admission."""

    __slots__ = (
        "job", "tenant_class", "weight", "enqueued_ns", "vft", "seq", "reason",
        "group",
    )

    def __init__(self, job, tenant_class, weight, enqueued_ns, vft, seq, reason):
        self.job = job
        self.tenant_class = tenant_class
        self.weight = weight
        self.enqueued_ns = enqueued_ns
        self.vft = vft
        self.seq = seq
        self.reason = reason
        #: Key of the shape group the entry waits in.
        self.group = None


class AdmissionQueue:
    """FIFO or weighted-fair queue of iterations awaiting pool space."""

    def __init__(self, policy: str = "wfq") -> None:
        if policy not in ("fifo", "wfq"):
            raise ValueError(f"unknown queue policy {policy!r}")
        self.policy = policy
        #: Group key -> the group's entries in seq order.  FIFO keeps
        #: one group, the whole queue; WFQ keys by (tenant class, shape).
        self._groups: dict[Hashable, deque] = {}
        self._depth = 0
        self._seq = 0
        self._class_vft: dict[str, float] = {}
        self._vnow = 0.0
        #: Observability counters for the SLO collector.
        self.enqueued = 0
        self.dequeued = 0
        self.wait_samples_ns: list[float] = []
        self.depth_samples: list[int] = []
        #: Why entries queued, by rejection resource (slots/memory/quota):
        #: the saturation fingerprint the scaling bench reads.
        self.reason_counts: dict[str, int] = {}

    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        return self._depth

    def push(
        self, job, *, tenant_class: str, weight: float, now: float, reason: str,
        shape: Optional[Hashable] = None,
    ) -> None:
        """Park one iteration; its virtual finish time is stamped at
        enqueue (start-time fairness: waiting accrues no extra credit).

        ``shape`` is the entry's admission shape: entries of one tenant
        class and one shape must get the same answer from any probe.
        None makes the entry a group of its own."""
        vft = max(self._class_vft.get(tenant_class, 0.0), self._vnow)
        vft += float(job.nbytes) / weight
        self._class_vft[tenant_class] = vft
        self._add(
            QueuedJob(job, tenant_class, weight, now, vft, self._seq, reason), shape
        )
        self._seq += 1
        self.enqueued += 1
        self.reason_counts[reason] = self.reason_counts.get(reason, 0) + 1

    def _add(self, entry: QueuedJob, shape: Optional[Hashable]) -> None:
        # WFQ keys by class too: vft rises with seq only within one
        # class, which is what makes a group's head its fairest entry.
        if self.policy == "fifo":
            key = None
        elif shape is None:
            key = entry.seq
        else:
            key = (entry.tenant_class, shape)
        entry.group = key
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = deque()
        group.append(entry)
        self._depth += 1

    def next_admittable(self, admittable: Callable) -> Optional[QueuedJob]:
        """The next entry whose admission check passes, left in place.

        ``admittable(job) -> bool`` probes the pools without reserving.
        FIFO only ever examines the head (head-of-line blocking is the
        policy).  WFQ orders the shape groups' heads by ``(vft, seq)``
        and takes the first admittable one: every entry behind a head
        shares its answer and follows it in that order, so this is the
        entry a scan of every waiting entry would find, for one probe
        per shape.  Returns ``None`` when nothing can be admitted right
        now.  The queue is unchanged until :meth:`remove` commits the
        dequeue, so a caller whose issue is refused after all has
        nothing to undo.
        """
        heads = [group[0] for group in self._groups.values()]
        heads.sort(key=_FAIR_ORDER)
        for entry in heads:
            if admittable(entry.job):
                return entry
        return None

    def remove(self, entry: QueuedJob, now: float) -> None:
        """Dequeue ``entry`` (found by :meth:`next_admittable`) at
        ``now``: advance virtual time and record its queue wait."""
        group = self._groups[entry.group]
        group.remove(entry)                 # a head: found at index 0
        if not group:
            del self._groups[entry.group]
        self._depth -= 1
        self._vnow = max(self._vnow, entry.vft)
        self.dequeued += 1
        self.wait_samples_ns.append(now - entry.enqueued_ns)

    def sample_depth(self) -> None:
        self.depth_samples.append(self._depth)

    def waiting(self) -> list[QueuedJob]:
        """Every waiting entry, in enqueue order."""
        return sorted(
            (entry for group in self._groups.values() for entry in group),
            key=_SEQ,
        )

    # ------------------------------------------------------------------
    # Crash-consistent checkpointing (JSON-safe state)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Queue contents and fairness state, keyed by job id (the
        jobs themselves are re-derived from the workload on resume)."""
        return {
            "policy": self.policy,
            "seq": self._seq,
            "vnow": self._vnow,
            "class_vft": dict(self._class_vft),
            "entries": [
                {
                    "job_id": q.job.job_id,
                    "tenant_class": q.tenant_class,
                    "weight": q.weight,
                    "enqueued_ns": q.enqueued_ns,
                    "vft": q.vft,
                    "seq": q.seq,
                    "reason": q.reason,
                }
                for q in self.waiting()
            ],
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "wait_samples_ns": list(self.wait_samples_ns),
            "depth_samples": list(self.depth_samples),
            "reason_counts": dict(self.reason_counts),
        }

    def from_state(
        self, state: dict, job_by_id, shape: Optional[Callable] = None
    ) -> None:
        """Restore :meth:`to_state`'s queue; ``shape(job)`` regroups the
        entries (the shape :meth:`push` was given, None if it was not)."""
        if state["policy"] != self.policy:
            raise ValueError(
                f"checkpoint queue policy {state['policy']!r} != "
                f"configured {self.policy!r}"
            )
        self._seq = int(state["seq"])
        self._vnow = float(state["vnow"])
        self._class_vft = {
            k: float(v) for k, v in state["class_vft"].items()
        }
        self._groups = {}
        self._depth = 0
        for e in state["entries"]:
            job = job_by_id(int(e["job_id"]))
            self._add(
                QueuedJob(
                    job, e["tenant_class"], float(e["weight"]),
                    float(e["enqueued_ns"]), float(e["vft"]), int(e["seq"]),
                    e["reason"],
                ),
                None if shape is None else shape(job),
            )
        self.enqueued = int(state["enqueued"])
        self.dequeued = int(state["dequeued"])
        self.wait_samples_ns = [float(x) for x in state["wait_samples_ns"]]
        self.depth_samples = [int(x) for x in state["depth_samples"]]
        self.reason_counts = {
            k: int(v) for k, v in state["reason_counts"].items()
        }
