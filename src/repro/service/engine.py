"""The long-running fabric service: arrivals in, SLO reports out.

:class:`FabricService` closes the loop the one-shot benchmarks leave
open: it runs a :class:`~repro.comm.fabric.Fabric` *indefinitely* under
a workload source (Poisson arrivals or trace replay), placing each
arriving job onto topology regions, queueing it when the switch pools
are full, issuing its training iterations into the shared event loop,
and folding every completion into rolling SLO statistics.

The service adds **no second clock**: arrivals, queue retries, snapshot
ticks, and iteration gaps are all events on the fabric's one
discrete-event simulator, interleaved with the collectives' own chunk
events (and any armed fault events — chaos composes for free).

Lifecycle of one job::

    arrival ──place (JobScheduler)──► plan ──admission probe──┐
        ┌─────────────────────◄── pool release retry ──────── │ full
        ▼                                                     ▼
      issue iteration ──done──► gap ──► next iteration   AdmissionQueue
        │ (last one)
        ▼
      job done ──► SLOStats

A single job spanning the whole fabric takes none of the service-only
paths (no placement param, no queueing) — its request is byte-for-byte
the one ``Communicator.allreduce`` would build, which is what keeps
service mode bitwise/makespan-identical in the single-tenant limit
(the parity test pins this).
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional

from repro.comm.fabric import Fabric
from repro.core.manager import AdmissionError
from repro.service.queueing import AdmissionQueue, QueuedJob
from repro.service.scheduler import build_scheduler
from repro.service.slo import SLOStats
from repro.service.workload import Job

#: Admission rejections worth *waiting out* (resources that free up as
#: running collectives finish).  ``switch_down`` is not one: the fabric
#: replans or falls back immediately rather than waiting for repair.
QUEUEABLE_RESOURCES = frozenset({"slots", "memory", "quota"})

#: Version of the service-checkpoint file schema.  Bump on changes.
CHECKPOINT_SCHEMA_VERSION = 1

#: The mutable :class:`~repro.service.workload.Job` fields a checkpoint
#: carries (everything else is re-derived from the workload source).
_JOB_STATE_FIELDS = (
    "hosts", "iterations_done", "status", "queue_waits_ns",
    "iteration_times_ns", "first_issue_ns", "finish_ns",
)


class FabricService:
    """Runs a fabric under a workload until every job completes.

    Parameters
    ----------
    fabric:
        The shared substrate (bring your own: arbitration, pools,
        quotas, armed faults all apply to the service's traffic).
    workload:
        A :class:`~repro.service.workload.PoissonWorkload` or
        :class:`~repro.service.workload.TraceWorkload` (anything with
        ``.jobs()`` and ``.classes``).
    scheduler:
        Placement policy: ``"pack"``, ``"spread"``, or a prebuilt
        :class:`~repro.service.scheduler.JobScheduler`.
    queue_policy:
        Admission-queue discipline, ``"wfq"`` (default) or ``"fifo"``.
    snapshot_interval_ns:
        Period of rolling SLO snapshots (None = final report only).
    checkpoint_path:
        When set, every *quiescent* snapshot tick (no collective in
        flight) atomically rewrites this file with a crash-consistent
        checkpoint; ``run(resume=True)`` restarts a killed run from it
        and reproduces the uninterrupted run's remaining SLO snapshots
        (requires ``snapshot_interval_ns``).
    """

    def __init__(
        self,
        fabric: Fabric,
        workload,
        *,
        scheduler="pack",
        queue_policy: str = "wfq",
        snapshot_interval_ns: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        self.fabric = fabric
        self.workload = workload
        self.scheduler = build_scheduler(scheduler)
        self.queue = AdmissionQueue(queue_policy)
        if snapshot_interval_ns is not None and not (
            0 < snapshot_interval_ns < math.inf      # also rejects nan
        ):
            raise ValueError(
                "snapshot_interval_ns must be None or positive and finite, "
                f"got {snapshot_interval_ns!r}"
            )
        self.snapshot_interval_ns = snapshot_interval_ns
        if checkpoint_path is not None and not snapshot_interval_ns:
            raise ValueError(
                "checkpointing piggybacks on snapshot ticks; set "
                "snapshot_interval_ns"
            )
        self.checkpoint_path = checkpoint_path
        self.checkpoints_written = 0
        #: job_id -> absolute fire time of a pending inter-iteration
        #: gap timer (the only service-owned events besides arrivals
        #: and ticks — a checkpoint must re-arm them).
        self._gap_timers: dict[int, float] = {}
        self._jobs_by_id: dict[int, Job] = {}
        self.stats = SLOStats(
            {name: cls.weight for name, cls in workload.classes.items()}
        )
        #: host -> number of active jobs spanning it (placement signal).
        self.occupancy: dict = {}
        self._comms = {
            name: fabric.communicator(name=f"svc/{name}", weight=cls.weight)
            for name, cls in sorted(workload.classes.items())
        }
        self._open_jobs = 0
        self._arrivals_remaining = 0
        #: Iterations issued but not yet settled: the service's own
        #: share of ``fabric.in_flight``, which also counts collectives
        #: that other communicators issue on the same (shared) fabric.
        #: Snapshots report this count.
        self._inflight_iterations = 0
        self._draining = False
        fabric.on_pool_release(self._on_pool_release)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self, slo_out: Optional[str] = None, *, resume: bool = False
    ) -> dict:
        """Replay the workload to completion; returns the SLO report.

        Jobs that can never be admitted (demand exceeding the total
        pool) are reported under ``starved_jobs`` instead of hanging
        the loop — the CI smoke gate fails on any.

        With ``resume=True`` and an existing :attr:`checkpoint_path`
        file, the run restarts from the last checkpoint instead of the
        beginning (a missing file degrades to a fresh run, so the same
        command line works before and after a crash).
        """
        jobs = self.workload.jobs()
        self._jobs_by_id = {job.job_id: job for job in jobs}
        sim = self.fabric.sim
        state = None
        if resume:
            if self.checkpoint_path is None:
                raise ValueError("resume=True needs a checkpoint_path")
            if os.path.exists(self.checkpoint_path):
                with open(self.checkpoint_path) as fh:
                    state = json.load(fh)
                version = state.get("schema_version")
                if version != CHECKPOINT_SCHEMA_VERSION:
                    raise ValueError(
                        f"checkpoint schema_version {version!r} "
                        f"unsupported; this engine speaks version "
                        f"{CHECKPOINT_SCHEMA_VERSION}"
                    )
        if state is None:
            self._arrivals_remaining = len(jobs)
            for job in jobs:
                sim.schedule_at(job.arrival_ns, self._on_arrival, job)
            if self.snapshot_interval_ns:
                sim.schedule_at(self.snapshot_interval_ns, self._tick)
        else:
            self._restore(state)
        self.fabric.run()
        return self._final_report(slo_out)

    # ------------------------------------------------------------------
    # Crash-consistent checkpoints
    # ------------------------------------------------------------------
    def _write_checkpoint(self) -> None:
        """Atomically rewrite the checkpoint file (tmp + rename).

        Called only at quiescent ticks (``in_flight == 0``), where the
        service's entire future is: undelivered arrivals (re-derived
        from the workload), pending gap timers, queued iterations, and
        the accumulated stats — all of it JSON-serializable.
        """
        tr = self.fabric.net.traffic
        state = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "now_ns": self.fabric.now,
            "workload_seed": getattr(self.workload, "seed", None),
            "open_jobs": self._open_jobs,
            "arrivals_remaining": self._arrivals_remaining,
            "occupancy": dict(self.occupancy),
            "gap_timers": {
                str(job_id): t for job_id, t in self._gap_timers.items()
            },
            "jobs": {
                str(job.job_id): {
                    field: (
                        list(getattr(job, field))
                        if isinstance(getattr(job, field), (list, tuple))
                        else getattr(job, field)
                    )
                    for field in _JOB_STATE_FIELDS
                }
                for job in self._jobs_by_id.values()
                if job.status != "pending"
            },
            "queue": self.queue.to_state(),
            "stats": self.stats.to_state(),
            "traffic": {
                "bytes_hops": tr.bytes_hops,
                "messages": tr.messages,
                "drops": tr.drops,
                "duplicates": tr.duplicates,
                "retransmits": tr.retransmits,
                "per_link": [
                    [a, b, v] for (a, b), v in tr.per_link.items()
                ],
                "link_drops": [
                    [a, b, v] for (a, b), v in tr.link_drops.items()
                ],
                "link_duplicates": [
                    [a, b, v] for (a, b), v in tr.link_duplicates.items()
                ],
            },
        }
        tmp = f"{self.checkpoint_path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh)
        os.replace(tmp, self.checkpoint_path)
        self.checkpoints_written += 1

    def _restore(self, state: dict) -> None:
        """Rebuild service + job state from a checkpoint and fast-
        forward the fabric clock to the checkpointed tick."""
        # Faults armed before the tick would fire behind the forwarded
        # clock, and loss rolls key on per-link message counts.
        if self.fabric.faults is not None:
            raise ValueError(
                f"checkpoint {self.checkpoint_path!r} carries no fault or "
                "link state, so a run with armed faults cannot resume from "
                "it; start the run afresh"
            )
        sim = self.fabric.sim
        t0 = float(state["now_ns"])
        sim.now = t0
        arrived: set[int] = set()
        for job_id_s, jstate in state["jobs"].items():
            job = self._jobs_by_id[int(job_id_s)]
            arrived.add(job.job_id)
            for field in _JOB_STATE_FIELDS:
                value = jstate[field]
                if field == "hosts" and value is not None:
                    value = tuple(value)
                elif field in ("queue_waits_ns", "iteration_times_ns"):
                    value = [float(x) for x in value]
                setattr(job, field, value)
        self._open_jobs = int(state["open_jobs"])
        self._arrivals_remaining = int(state["arrivals_remaining"])
        self.occupancy = {
            h: int(n) for h, n in state["occupancy"].items()
        }
        for job in self._jobs_by_id.values():
            if job.job_id not in arrived:
                sim.schedule_at(job.arrival_ns, self._on_arrival, job)
        for job_id_s, t in state["gap_timers"].items():
            job = self._jobs_by_id[int(job_id_s)]
            self._gap_timers[job.job_id] = float(t)
            sim.schedule_at(float(t), self._start_iteration, job)
        self.queue.from_state(
            state["queue"], lambda job_id: self._jobs_by_id[job_id], self._shape
        )
        self.stats.from_state(state["stats"])
        tr = self.fabric.net.traffic
        ts = state["traffic"]
        tr.bytes_hops = int(ts["bytes_hops"])
        tr.messages = int(ts["messages"])
        tr.drops = int(ts["drops"])
        tr.duplicates = int(ts["duplicates"])
        tr.retransmits = int(ts["retransmits"])
        tr.per_link.update(
            {(a, b): int(v) for a, b, v in ts["per_link"]}
        )
        tr.link_drops.update(
            {(a, b): int(v) for a, b, v in ts["link_drops"]}
        )
        tr.link_duplicates.update(
            {(a, b): int(v) for a, b, v in ts["link_duplicates"]}
        )
        if self.snapshot_interval_ns:
            sim.schedule_at(t0 + self.snapshot_interval_ns, self._tick)

    def _final_report(self, slo_out: Optional[str]) -> dict:
        starved = [
            {
                "job_id": q.job.job_id,
                "tenant_class": q.tenant_class,
                "waiting_since_ns": q.enqueued_ns,
                "reason": q.reason,
            }
            for q in self.queue.waiting()
        ]
        # Final provenance flush (energy needs the settled makespan).
        self.fabric.flush_provenance()
        extra = {
            "run_id": self.fabric.run_id,
            "placement": self.scheduler.name,
            "starved_jobs": starved,
            "utilization": self.fabric.manager.utilization(),
            "faults": self.fabric.fault_log(),
        }
        if self.fabric.provenance is not None:
            extra["provenance_db"] = self.fabric.provenance.store.path
        report = self.stats.report(
            self.fabric.now,
            queue=self.queue,
            cache_info=self.cache_info(),
            extra=extra,
        )
        if slo_out is not None:
            with open(slo_out, "w") as fh:
                json.dump(report, fh, indent=2, default=str)
        return report

    def cache_info(self) -> dict:
        """Plan-cache counters aggregated over every tenant class."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "currsize": 0}
        for comm in self._comms.values():
            info = comm.cache_info()
            for key in totals:
                totals[key] += getattr(info, key)
        return totals

    # ------------------------------------------------------------------
    # Job lifecycle (every handler runs inside the event loop)
    # ------------------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        self.stats.record_arrival(job)
        self._open_jobs += 1
        self._arrivals_remaining -= 1
        n_hosts = job.n_hosts or self.fabric.topology.n_hosts
        if n_hosts < self.fabric.topology.n_hosts:
            job.hosts = self.scheduler.place(
                n_hosts,
                self.fabric.topology,
                self.occupancy,
                self.fabric.net.traffic.per_link,
            )
            for h in job.hosts:
                self.occupancy[h] = self.occupancy.get(h, 0) + 1
        job.status = "running"
        self._start_iteration(job)

    def _request_kwargs(self, job: Job) -> dict:
        kwargs = dict(
            algorithm=job.algorithm,
            dtype=job.dtype,
            sparse=job.sparse,
            density=job.density,
        )
        if job.hosts is not None:
            # Placement params only when actually placing: a
            # full-fabric job's request stays identical to a direct
            # Communicator.allreduce (single-tenant parity).
            kwargs["hosts"] = job.hosts
        return kwargs

    def _shape(self, job: Job) -> tuple:
        """The job's admission shape: with its tenant class, everything
        ``plan`` and ``would_admit`` read of it."""
        return (job.nbytes, *self._request_kwargs(job).items())

    def _start_iteration(self, job: Job) -> None:
        """An iteration is ready: admit now or park in the queue."""
        self._gap_timers.pop(job.job_id, None)
        comm = self._comms[job.tenant_class]
        kwargs = self._request_kwargs(job)
        plan = comm.plan(nbytes=job.nbytes, **kwargs)
        rejection = self.fabric.would_admit(plan, tenant=comm.name)
        if (
            rejection is not None
            and getattr(rejection, "resource", None) in QUEUEABLE_RESOURCES
        ):
            self._enqueue(job, rejection.resource)
            self.queue.sample_depth()
            return
        self._issue(job)

    def _enqueue(self, job: Job, reason: str) -> None:
        job.status = "queued"
        self.queue.push(
            job,
            tenant_class=job.tenant_class,
            weight=self.workload.classes[job.tenant_class].weight,
            now=self.fabric.now,
            reason=reason,
            shape=self._shape(job),
        )

    def _admittable(self, job: Job) -> bool:
        """Admission probe for one queued job, without reserving.

        ``plan`` + ``would_admit`` are pure functions of the job's
        :meth:`_shape`, tenant class and the pools, so the queue probes
        only the head of each shape group, once per scan.
        """
        comm = self._comms[job.tenant_class]
        plan = comm.plan(nbytes=job.nbytes, **self._request_kwargs(job))
        return self.fabric.would_admit(plan, tenant=comm.name) is None

    def _issue(self, job: Job, entry: Optional[QueuedJob] = None) -> bool:
        """Issue ``job``'s next iteration (``entry`` = the queue entry it
        waits in, dequeued only once the issue succeeds).  Returns False
        when admission refused it and the job stays parked."""
        comm = self._comms[job.tenant_class]
        now = self.fabric.now
        try:
            future = comm.iallreduce(job.nbytes, **self._request_kwargs(job))
        except AdmissionError as exc:
            # The probe and the issue disagree (e.g. a fault landed in
            # between inside this same timestamp).  The attempt leaves
            # no trace: a queued entry keeps its place, enqueue time and
            # fair-queue position.
            if entry is None:
                self._enqueue(job, getattr(exc, "resource", "unknown"))
            return False
        if job.first_issue_ns is None:
            job.first_issue_ns = now
        ready_ns = now
        if entry is not None:
            self.queue.remove(entry, now)
            ready_ns = entry.enqueued_ns        # queue wait counts
            job.queue_waits_ns.append(now - ready_ns)
        job.status = "running"
        self._inflight_iterations += 1
        future.add_done_callback(
            lambda fut: self._on_iteration_done(job, ready_ns, fut.result())
        )
        return True

    def _on_iteration_done(self, job: Job, ready_ns: float, result) -> None:
        self._inflight_iterations -= 1
        now = self.fabric.now
        duration = now - ready_ns           # queue wait + execution
        job.iteration_times_ns.append(duration)
        job.iterations_done += 1
        self.stats.record_iteration(
            job.tenant_class,
            duration,
            job.nbytes,
            fell_back=bool(result.extra.get("fell_back")),
            recoveries=len(result.extra.get("recoveries") or ()),
            # Per-flow reliability counters (present on fault-injection
            # runs via NetworkSimulator.traffic_extra): what the chaos
            # cost this class, surfaced in every SLO snapshot.
            drops=int(result.extra.get("drops") or 0),
            duplicates=int(result.extra.get("duplicates") or 0),
            retransmits=int(result.extra.get("retransmits") or 0),
        )
        if job.iterations_done < job.iterations:
            self._gap_timers[job.job_id] = now + job.gap_ns
            self.fabric.sim.schedule_at(
                now + job.gap_ns, self._start_iteration, job
            )
        else:
            self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        job.status = "done"
        job.finish_ns = self.fabric.now
        self._open_jobs -= 1
        if job.hosts is not None:
            for h in job.hosts:
                self.occupancy[h] = max(0, self.occupancy.get(h, 0) - 1)
        self.stats.record_job_done(job)

    # ------------------------------------------------------------------
    # Queue drain & snapshots
    # ------------------------------------------------------------------
    def _on_pool_release(self) -> None:
        """Pool resources freed: retry queued iterations, fair order.

        Re-entrancy guard: issuing a dequeued job can release/acquire
        resources itself; one drain loop at a time.  Each issue changes
        the pools, so every scan probes afresh.  A failed issue ends the
        drain (the entry is still at the head of its order and would be
        found again at this same instant); the next release retries
        it."""
        if self._draining or not len(self.queue):
            return
        self._draining = True
        try:
            while True:
                entry = self.queue.next_admittable(self._admittable)
                if entry is None or not self._issue(entry.job, entry):
                    break
        finally:
            self._draining = False
        self.queue.sample_depth()

    def _tick(self) -> None:
        self.queue.sample_depth()
        self.stats.snapshot(
            self.fabric.now,
            queue=self.queue,
            cache_info=self.cache_info(),
            extra={"in_flight": self._inflight_iterations},
        )
        # Stream incremental provenance on each snapshot tick, so a
        # long service run's DB is queryable while it is still going.
        if self.fabric.provenance is not None:
            self.fabric.provenance.tick()
        # Quiescent tick: no iteration holds wire time, so every open
        # job is either queued or parked on a gap timer — the service
        # state is a closed JSON-serializable set.  Checkpoint it.
        if (
            self.checkpoint_path is not None
            and self._inflight_iterations == 0
            and self.fabric.in_flight == 0
        ):
            self._write_checkpoint()
        # Reschedule only while progress is still possible; a tick that
        # kept rescheduling past the last completion would hold the
        # event loop open forever.
        if self._arrivals_remaining > 0 or self._open_jobs > 0:
            self.fabric.sim.schedule_at(
                self.fabric.now + self.snapshot_interval_ns, self._tick
            )
