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
"""

from __future__ import annotations

from typing import Callable, Optional


class QueuedJob:
    """One iteration waiting for admission."""

    __slots__ = ("job", "tenant_class", "weight", "enqueued_ns", "vft", "seq", "reason")

    def __init__(self, job, tenant_class, weight, enqueued_ns, vft, seq, reason):
        self.job = job
        self.tenant_class = tenant_class
        self.weight = weight
        self.enqueued_ns = enqueued_ns
        self.vft = vft
        self.seq = seq
        self.reason = reason


class AdmissionQueue:
    """FIFO or weighted-fair queue of iterations awaiting pool space."""

    def __init__(self, policy: str = "wfq") -> None:
        if policy not in ("fifo", "wfq"):
            raise ValueError(f"unknown queue policy {policy!r}")
        self.policy = policy
        self._items: list[QueuedJob] = []
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
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    def push(
        self, job, *, tenant_class: str, weight: float, now: float, reason: str
    ) -> None:
        """Park one iteration; its virtual finish time is stamped at
        enqueue (start-time fairness: waiting accrues no extra credit)."""
        vft = max(self._class_vft.get(tenant_class, 0.0), self._vnow)
        vft += float(job.nbytes) / weight
        self._class_vft[tenant_class] = vft
        self._items.append(
            QueuedJob(job, tenant_class, weight, now, vft, self._seq, reason)
        )
        self._seq += 1
        self.enqueued += 1
        self.reason_counts[reason] = self.reason_counts.get(reason, 0) + 1

    def next_admittable(self, admittable: Callable) -> Optional[QueuedJob]:
        """The next entry whose admission check passes, left in place.

        ``admittable(job) -> bool`` probes the pools without reserving.
        FIFO only ever examines the head (head-of-line blocking is the
        policy); WFQ scans every waiting entry in virtual-finish order
        and takes the first admittable one.  Returns ``None`` when
        nothing can be admitted right now.  The queue is unchanged until
        :meth:`remove` commits the dequeue, so a caller whose issue is
        refused after all has nothing to undo.
        """
        if not self._items:
            return None
        if self.policy == "fifo":
            candidates = [self._items[0]]
        else:
            candidates = sorted(self._items, key=lambda q: (q.vft, q.seq))
        for entry in candidates:
            if admittable(entry.job):
                return entry
        return None

    def remove(self, entry: QueuedJob, now: float) -> None:
        """Dequeue ``entry`` (found by :meth:`next_admittable`) at
        ``now``: advance virtual time and record its queue wait."""
        self._items.remove(entry)
        self._vnow = max(self._vnow, entry.vft)
        self.dequeued += 1
        self.wait_samples_ns.append(now - entry.enqueued_ns)

    def pop_admittable(
        self, admittable: Callable, now: float
    ) -> Optional[QueuedJob]:
        """:meth:`next_admittable` and :meth:`remove` in one step."""
        entry = self.next_admittable(admittable)
        if entry is not None:
            self.remove(entry, now)
        return entry

    def sample_depth(self) -> None:
        self.depth_samples.append(len(self._items))

    def waiting(self) -> list[QueuedJob]:
        return list(self._items)

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
                for q in self._items
            ],
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "wait_samples_ns": list(self.wait_samples_ns),
            "depth_samples": list(self.depth_samples),
            "reason_counts": dict(self.reason_counts),
        }

    def from_state(self, state: dict, job_by_id) -> None:
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
        self._items = [
            QueuedJob(
                job_by_id(int(e["job_id"])), e["tenant_class"],
                float(e["weight"]), float(e["enqueued_ns"]),
                float(e["vft"]), int(e["seq"]), e["reason"],
            )
            for e in state["entries"]
        ]
        self.enqueued = int(state["enqueued"])
        self.dequeued = int(state["dequeued"])
        self.wait_samples_ns = [float(x) for x in state["wait_samples_ns"]]
        self.depth_samples = [int(x) for x in state["depth_samples"]]
        self.reason_counts = {
            k: int(v) for k, v in state["reason_counts"].items()
        }
