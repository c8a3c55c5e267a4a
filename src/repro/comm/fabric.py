"""Shared-fabric execution: concurrent collectives, one event loop.

A :class:`Fabric` owns the physical substrate every collective runs
over — the topology (with its live link state), the routing policy, the
pooled switch resources of the Sec. 4 control plane, and a single
discrete-event clock (the PsPIN :class:`~repro.pspin.engine.Simulator`,
reused as the fabric-wide timebase).  Any number of
:class:`~repro.comm.communicator.Communicator` tenants attach via
:meth:`Fabric.communicator`::

    fabric = Fabric(n_hosts=16, n_spines=1)           # oversubscribed
    training = fabric.communicator(name="training", weight=4.0)
    indexing = fabric.communicator(name="indexing", weight=1.0)
    f1 = training.iallreduce("8MiB", algorithm="ring")
    f2 = indexing.iallreduce("8MiB", algorithm="ring")
    wait_all([f1, f2])                                # contend, arbitrated
    print(fabric.timeline())

In-flight collectives from all tenants interleave as events in the one
loop: their chunks queue behind each other on shared links (weighted
start-time-fair arbitration, per-tenant QoS weights), and in-network
collectives pass through the live :class:`NetworkManager` admission
path — pooled handler slots and switch memory, per-tenant quotas —
falling back to a host-based algorithm when a switch pool is full,
exactly the paper's reject-and-fall-back behavior.

Reliability.  :meth:`Fabric.inject` / :meth:`Fabric.load_faults` arm
declarative chaos on the shared links (loss, duplication, degradation,
outages; see :mod:`repro.network.faults`).  Lost chunks are recovered
by the host timeout + retransmission protocol of the network layer; a
mid-collective **link or switch outage** additionally triggers
*self-healing* for the in-network tree collectives: the fabric abandons
the wounded flow, consults :meth:`TreePlanner.plan_dynamic` to re-root
the aggregation tree away from the failure (Canary-style), and
re-issues — or, when the switch pool itself is lost, replans onto the
host-based Rabenseifner fallback.  Every recovery is recorded on the
collective's :meth:`timeline` entry and in :meth:`tenant_stats`.

:meth:`Fabric.timeline` exports a per-tenant trace (start/finish,
bytes, achieved goodput, hot links, fallbacks, recoveries) for the
bench CLI (``bench --tenants N --overlap --faults spec.json``) and CI
artifacts.

A lone ``Communicator`` creates a *private* fabric, wired from its
defaults, on first non-blocking use.  A standalone ``plan.execute`` is
a one-tenant run: :meth:`Fabric.issue` with no communicator into a
fresh fabric (``fallback=False``), driven by :meth:`Fabric.run_until`.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Optional

from repro.comm.plan import CollectivePlan, build_plan
from repro.comm.registry import CapabilityError, CommError, bind_knobs, get_algorithm
from repro.core.manager import AdmissionError, NetworkManager
from repro.network.simulator import NetworkSimulator  # noqa: F401  (re-export)
from repro.comm.wiring import Wiring
from repro.network.trees import TreePlanner
from repro.pspin.engine import Simulator  # noqa: F401  (re-export)
from repro.pspin.pdes import build_engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.communicator import Communicator
    from repro.comm.future import CollectiveFuture
    from repro.network.faults import FaultInjector, FaultSchedule, FaultSpec
    from repro.network.topology import Topology

#: Version of the JSON envelope emitted by :meth:`Fabric.timeline_json`
#: and reused by the service-mode SLO snapshots (see README "Timeline &
#: snapshot schema").  Bump on any backwards-incompatible field change.
#: Version 3 adds run identity: a ``run_id`` every envelope carries and
#: an optional ``provenance_db`` pointer when a provenance recorder was
#: attached; :func:`load_timeline` still reads version-2 documents.
TIMELINE_SCHEMA_VERSION = 3

#: The one knob of a run on a fabric, ``seed``: network schedules are
#: deterministic and leave it unused (the CLI bench passes it to every
#: algorithm).
_FABRIC_RUN = inspect.Signature(
    [inspect.Parameter("seed", inspect.Parameter.KEYWORD_ONLY, default=0)]
)


class FabricError(CommError):
    """Fabric-level failure (deadlocked loop, duplicate tenant, ...)."""


class _Inflight:
    """Book-keeping for one issued, not-yet-settled collective.

    Everything :meth:`Fabric._recover` needs to abandon a wounded flow
    and re-issue the collective on a replanned tree: the owning tenant
    communicator, the current plan and its payloads, the admission
    ticket, and the timeline entry being built.
    """

    __slots__ = (
        "comm", "plan", "payloads", "tenant", "weight",
        "future", "entry", "ticket", "flow", "start", "base",
    )

    def __init__(self, comm, plan, payloads, tenant, weight,
                 future, entry, ticket, flow, start) -> None:
        self.comm = comm
        self.plan = plan
        self.payloads = payloads
        self.tenant = tenant
        self.weight = weight
        self.future = future
        self.entry = entry
        self.ticket = ticket
        self.flow = flow
        self.start = start          # fabric time of the original issue
        self.base = start           # fabric time of the latest (re)issue


class Fabric:
    """One shared substrate serving any number of communicator tenants.

    Parameters
    ----------
    topology:
        A family name (built from ``topology_params``) or a prebuilt
        :class:`~repro.network.topology.Topology`; ``None`` keeps the
        paper's fat tree sized from ``n_hosts``/``hosts_per_leaf``/
        ``n_spines`` (resolved as for any request, by
        :class:`~repro.comm.wiring.Wiring`).
    routing, routing_seed:
        Path-selection policy over the shared links (default: seeded
        deterministic ECMP).  Links are shared across tenants by
        weighted start-time-fair arbitration (``"wfq"``), so QoS
        weights matter.
    max_allreduces_per_switch, switch_memory_bytes, tenant_quota:
        Admission pools of the network manager (Sec. 4): concurrent
        handler slots per switch, pooled switch SRAM per switch
        (``None`` = unmetered), and the per-tenant concurrency cap.
    fallback:
        When admission rejects an in-network collective, transparently
        replan it host-based (the paper's behavior) instead of raising.
    retransmit_timeout_ns:
        Host timeout before a chunk lost to an injected fault is
        retransmitted end to end (paper Sec. 4.1).
    max_retransmits:
        End-to-end retransmission budget per message under injected
        faults; exhausting it raises ``UnreachableError`` (surfacing a
        partition instead of retrying forever).
    """

    def __init__(
        self,
        topology: "Topology | str | None" = None,
        *,
        topology_params: Optional[dict] = None,
        n_hosts: int = 64,
        routing: Optional[str] = None,
        routing_seed: int = 0,
        hosts_per_leaf: Optional[int] = None,
        n_spines: Optional[int] = None,
        max_allreduces_per_switch: int = 8,
        switch_memory_bytes: Optional[float] = None,
        tenant_quota: Optional[int] = None,
        fallback: bool = True,
        retransmit_timeout_ns: float = 50_000.0,
        max_retransmits: int = 64,
        provenance_db: Optional[str] = None,
        run_label: Optional[str] = None,
    ) -> None:
        if not 0 < retransmit_timeout_ns < math.inf:      # also rejects nan
            raise ValueError(
                "retransmit_timeout_ns must be positive and finite, "
                f"got {retransmit_timeout_ns!r}"
            )
        if not isinstance(max_retransmits, int) or max_retransmits < 0:
            raise ValueError(
                "max_retransmits must be a non-negative integer, "
                f"got {max_retransmits!r}"
            )
        topo = Wiring.of(
            n_hosts, topology=topology, topology_params=topology_params,
            hosts_per_leaf=hosts_per_leaf, n_spines=n_spines,
        ).build()
        self.topology = topo
        self.routing = routing
        self.routing_seed = routing_seed
        #: The single fabric clock — the PsPIN discrete-event engine,
        #: shared by every collective issued into this fabric.
        self.sim, self.net = build_engine(
            topo, router=routing, routing_seed=routing_seed
        )
        self.net.retransmit_timeout_ns = retransmit_timeout_ns
        self.net.max_retransmits = max_retransmits
        self.manager = NetworkManager(
            max_allreduces_per_switch,
            switch_memory_bytes=switch_memory_bytes,
            tenant_quota=tenant_quota,
        )
        self.fallback = fallback
        self._tenants: dict[str, "Communicator"] = {}
        self._next_flow = 1
        self._events: list[dict] = []
        self._pending: "set[CollectiveFuture]" = set()
        self._inflight: dict[object, _Inflight] = {}
        #: Run identity: every fabric mints a run id at construction so
        #: timelines are attributable even without a provenance store.
        from repro.provenance.identity import new_run_id

        self.run_id = new_run_id(self.topology.family, routing_seed)
        self.provenance = None
        if provenance_db is not None:
            self.attach_provenance(provenance_db, label=run_label)

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def communicator(
        self, name: Optional[str] = None, weight: float = 1.0, **kwargs
    ) -> "Communicator":
        """Attach a new tenant communicator to this fabric.

        ``weight`` is the tenant's QoS share in link arbitration;
        remaining ``kwargs`` go to the :class:`Communicator`
        constructor (plan cache size, PsPIN dimensions, ...).
        """
        from repro.comm.communicator import Communicator

        return Communicator(fabric=self, name=name, weight=weight, **kwargs)

    def _register(self, comm: "Communicator") -> str:
        name = comm.name
        if name is None:
            i = len(self._tenants)
            while f"tenant{i}" in self._tenants:   # skip explicit names
                i += 1
            name = f"tenant{i}"
        elif name in self._tenants:
            raise FabricError(
                f"tenant {name!r} is already attached to this fabric"
            )
        self._tenants[name] = comm
        return name

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    # ------------------------------------------------------------------
    # Fault injection & self-healing
    # ------------------------------------------------------------------
    def _arm(self, seed: Optional[int] = None) -> FaultInjector:
        first = self.net.faults is None
        injector = self.net.arm_faults(seed=seed)
        if first:
            injector.on_fault(self._on_fault_event)
        return injector

    def inject(
        self,
        link=None,
        switch: Optional[str] = None,
        *,
        at: Optional[float] = None,
        kind: str = "down",
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        slow_factor: float = 1.0,
        duration_ns: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> FaultSpec:
        """Arm one fault on the shared fabric.

        ``fabric.inject(link="l0-s0", at=2e5, kind="down")`` kills a
        link mid-flight; ``kind="lossy"`` (with ``loss_rate`` /
        ``duplicate_rate``) and ``kind="slow"`` (with ``slow_factor``)
        degrade it instead, ``link="*"`` degrades every link, and
        ``switch="s0"`` takes a whole switch out.  ``at`` defaults to
        *now*; ``duration_ns`` schedules automatic repair.  Arming
        faults disengages the network fast paths, so chunks take the
        exact per-packet DES path (see
        :meth:`~repro.network.simulator.NetworkSimulator.arm_faults`).
        """
        from repro.network.faults import FaultSpec

        spec = FaultSpec(
            kind=kind,
            link=link,
            switch=switch,
            at=self.now if at is None else at,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            slow_factor=slow_factor,
            duration_ns=duration_ns,
        )
        self._arm(seed).inject(spec)
        return spec

    def load_faults(self, source, seed: Optional[int] = None) -> FaultSchedule:
        """Arm a declarative :class:`FaultSchedule` (dict, list, path to
        a JSON file, or a prebuilt schedule) — the CLI's
        ``bench --faults spec.json`` entry point."""
        from repro.network.faults import FaultSchedule

        schedule = FaultSchedule.from_any(source, seed=seed)
        injector = self._arm(schedule.seed)
        for spec in schedule:
            injector.inject(spec)
        return schedule

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The armed fault injector (None on a healthy fabric)."""
        return self.net.faults

    def fault_log(self) -> list[dict]:
        """Applied fault/repair events, application order."""
        return list(self.net.faults.applied) if self.net.faults else []

    def _on_fault_event(self, event: dict) -> None:
        """Self-healing hook, called inside the loop on every applied
        fault/repair event."""
        switch = event.get("switch")
        if switch is not None:
            # Mirror outages into the admission control plane so new
            # in-network collectives reject (and fall back) immediately.
            if event["event"] == "fault":
                self.manager.fail_switch(switch)
            else:
                self.manager.repair_switch(switch)
        if event["event"] != "fault" or event.get("kind") != "down":
            return
        for rec in list(self._inflight.values()):
            if rec.flow in self._inflight and self._tree_affected(rec, event):
                self._recover(rec, event)

    @staticmethod
    def _tree_affected(rec: _Inflight, event: dict) -> bool:
        """Did this outage sever the collective's aggregation tree?

        Host-based schedules recover through retransmission + rerouting
        alone; only in-network tree collectives need replanning."""
        tree = rec.plan.tree
        if tree is None:
            return False
        switch = event.get("switch")
        if switch is not None:
            return switch in rec.plan.tree_switches
        pair = event.get("link_nodes")
        if not pair:
            return False
        a, b = pair
        links = {tuple(edge) for edge in tree.tree_links()}
        return (a, b) in links or (b, a) in links

    def _replan_with_tree(self, plan: CollectivePlan, tree) -> CollectivePlan:
        """Rebuild the same algorithm's plan over an explicit
        replacement tree (bypasses the plan cache: failure state must
        never pollute cached healthy plans)."""
        request = plan.request
        new_request = dc_replace(
            request, params={**request.params, "tree": tree}
        )
        return build_plan(new_request, get_algorithm(plan.algorithm))

    def _reroot(self, plan: CollectivePlan, tenant: Optional[str]):
        """Re-plan a tree collective's aggregation tree over the *live*
        topology and admit it (Canary-style).

        :meth:`TreePlanner.plan_dynamic` picks the coolest of the roots
        whose tree the switch pools admit right now, so a full or dead
        switch is routed around rather than re-chosen.  Returns
        ``(plan, ticket)``; raises ``ValueError``, ``AdmissionError`` or
        ``CapabilityError`` when no tree fits (the first root's
        rejection when every root is rejected)."""
        planner = TreePlanner(self.topology)
        hosts = plan.request.wiring.hosts
        memory = float(plan.request.nbytes)
        roots, rejection = [], None
        for root in planner.candidate_roots():
            exc = self.manager.check(
                planner.plan(root, hosts=hosts).switches(),
                tenant=tenant,
                memory_bytes=memory,
            )
            if exc is None:
                roots.append(root)
            elif rejection is None:
                rejection = exc
        if not roots:
            raise rejection
        candidate = self._replan_with_tree(
            plan, planner.plan_dynamic(roots, hosts=hosts)
        )
        ticket = self.manager.admit(
            candidate.tree_switches,
            tenant=tenant,
            memory_bytes=memory,
        )
        return candidate, ticket

    def _recover(self, rec: _Inflight, event: dict) -> None:
        """Canary-style mid-flight recovery of one tree collective.

        Abandon the wounded flow (in-flight chunks are discarded at
        their next hop), release its switch resources, re-root the
        aggregation tree away from the failure (:meth:`_reroot`), and
        re-issue.  When no viable
        tree or switch pool remains, replan host-based instead (the
        paper's fallback), carrying any payloads to an *executing*
        algorithm.
        """
        old_flow = rec.flow
        self._inflight.pop(old_flow, None)
        self.net.abandon_flow(old_flow)
        if rec.ticket is not None:
            self.manager.release(rec.ticket)
            rec.ticket = None
        note = {
            "at_ns": self.now,
            "cause": {
                k: event[k]
                for k in ("kind", "link", "switch")
                if event.get(k) is not None
            },
            "from_algorithm": rec.plan.algorithm,
            "from_root": self._root(rec.plan),
        }
        try:
            new_plan, rec.ticket = self._reroot(rec.plan, rec.tenant)
        except (ValueError, AdmissionError, CapabilityError) as exc:
            note["fallback_reason"] = str(exc)
            new_plan = self._fallback_plan(rec.comm, rec.plan, rec.payloads)
            rec.entry["fell_back"] = True
        rec.plan = new_plan
        rec.flow = self._next_flow
        self._next_flow += 1
        rec.future.flow = rec.flow
        note["to_algorithm"] = new_plan.algorithm
        note["to_root"] = self._root(new_plan)
        rec.entry["recoveries"].append(note)
        rec.entry["algorithm"] = new_plan.algorithm
        self._issue_record(rec)

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------
    @staticmethod
    def _root(plan: CollectivePlan):
        return plan.tree.root if plan.tree is not None else None

    def _fallback_plan(
        self, comm: "Communicator", plan: CollectivePlan, payloads
    ) -> CollectivePlan:
        """Replan a rejected in-network collective host-based.

        Size-only requests fall back to the timing baselines (ring /
        SparCML); payload-carrying requests need an *executing*
        host algorithm, so they take Rabenseifner (recursive halving/
        doubling — the classic host fallback).  A placement subset
        survives the fallback: the host schedule rings the same hosts
        the tree would have aggregated.
        """
        request = plan.request
        if request.sparse:
            algorithm = "sparcml"
        elif payloads is not None:
            algorithm = "rabenseifner"
        else:
            algorithm = "ring"
        return comm.plan(
            nbytes=request.nbytes,
            n_hosts=request.n_hosts,
            op=request.op,
            dtype=request.dtype,
            algorithm=algorithm,
            sparse=request.sparse,
            density=request.density,
            payloads=payloads,
            hosts=request.wiring.hosts,
        )

    def would_admit(
        self, plan: CollectivePlan, tenant: Optional[str] = None
    ) -> "AdmissionError | None":
        """Non-mutating admission probe for the service queueing layer.

        Returns the :class:`AdmissionError` that :meth:`issue` would hit
        right now (tagged with its ``.resource``), or ``None`` when the
        plan would be admitted (or needs no admission at all).  Nothing
        is reserved — a subsequent :meth:`issue` re-runs the real
        check-and-commit path.
        """
        if not plan.caps.in_network:
            return None
        return self.manager.check(
            plan.tree_switches,
            tenant=tenant,
            memory_bytes=float(plan.request.nbytes),
        )

    def on_pool_release(self, callback) -> None:
        """Register ``callback()`` to fire whenever switch-pool
        resources are released (admission retries can wake up)."""
        self.manager.add_release_listener(callback)

    def issue(
        self,
        comm: "Optional[Communicator]",
        plan: CollectivePlan,
        payloads=None,
        knobs: Optional[dict] = None,
        *,
        tenant: Optional[str] = None,
        weight: float = 1.0,
    ) -> "CollectiveFuture":
        """Issue one planned collective into the shared event loop.

        ``knobs`` are the run's knobs: a run on a fabric takes only
        ``seed``, and any other raises
        :class:`~repro.comm.registry.UnknownKnobError`.  In-network
        plans pass the pooled admission path first (slots, switch
        memory, tenant quota, dead switches); a switch-resource
        rejection re-roots the tree, or else falls back to a host-based
        plan when ``fallback`` is on, while a tenant-quota rejection
        always raises (queueing more work for an over-quota tenant
        would defeat the quota).  ``comm`` replans such fallbacks; with
        ``None`` (a standalone ``plan.execute``) the rejection raises
        instead.  Returns a simulation-native future that resolves as
        the fabric's loop is driven (``future.result()``, :meth:`run`,
        or ``wait_all``).
        """
        from repro.comm.future import CollectiveFuture

        if knobs:
            bind_knobs(_FABRIC_RUN, f"a {plan.algorithm!r} run on a fabric", **knobs)
        fell_back = False
        admission_note = None
        ticket = None
        if plan.caps.in_network:
            try:
                ticket = self.manager.admit(
                    plan.tree_switches,
                    tenant=tenant,
                    memory_bytes=float(plan.request.nbytes),
                )
            except AdmissionError as exc:
                if getattr(exc, "resource", None) == "quota" or not self.fallback:
                    raise
                admission_note = str(exc)
                try:
                    plan, ticket = self._reroot(plan, tenant)
                except (ValueError, AdmissionError, CapabilityError):
                    if comm is None:
                        raise exc from None
                    plan = self._fallback_plan(comm, plan, payloads)
                    fell_back = True
                else:
                    admission_note += (
                        f" -> replanned tree rooted at "
                        f"{self._root(plan)}"
                    )
        flow = self._next_flow
        self._next_flow += 1
        future = CollectiveFuture(
            plan.request, plan.algorithm, fabric=self, tenant=tenant, flow=flow
        )
        start = self.net.now
        entry = {
            "tenant": tenant,
            "weight": weight,
            "flow": flow,
            "algorithm": plan.algorithm,
            "nbytes": float(plan.request.nbytes),
            "n_hosts": plan.request.n_hosts,
            "start_ns": start,
            "finish_ns": None,
            "duration_ns": None,
            "goodput_gbps": None,
            "wire_bytes": None,
            "hot_links": None,
            "fell_back": fell_back,
            "admission": admission_note,
            "recoveries": [],
            "status": "running",
        }
        rec = _Inflight(
            comm=comm, plan=plan, payloads=payloads, tenant=tenant, weight=weight,
            future=future, entry=entry, ticket=ticket, flow=flow, start=start,
        )
        self._issue_record(rec)
        self._events.append(entry)
        return future

    def _issue_record(self, rec: _Inflight) -> None:
        """(Re-)issue one collective's events into the shared loop."""
        flow = rec.flow
        rec.base = self.net.now
        self.net.set_flow_weight(flow, rec.weight)

        def finish(result) -> None:
            if rec.ticket is not None:
                self.manager.release(rec.ticket)
                rec.ticket = None
            self.net.remove_flow(flow)
            self._inflight.pop(flow, None)
            self._settle_record(rec, result)

        self._pending.add(rec.future)
        self._inflight[flow] = rec
        try:
            rec.plan.issue(self.net, flow, rec.payloads, finish)
        except Exception:
            self._pending.discard(rec.future)
            self._inflight.pop(flow, None)
            self.net.remove_flow(flow)
            if rec.ticket is not None:
                self.manager.release(rec.ticket)
                rec.ticket = None
            raise

    def _settle_record(self, rec: _Inflight, result) -> None:
        # Wake any run_until() driving the loop for this (or any)
        # future — it re-checks its own future and resumes if this
        # was a different one.
        self.sim.stop_requested = True
        # Schedule times are relative to the latest (re)issue; the
        # timeline reports end-to-end durations from the original
        # issue, so recoveries lengthen the entry, not reset it.
        finish_ns = rec.base + result.time_ns
        entry = rec.entry
        duration = finish_ns - rec.start
        entry.update(
            finish_ns=finish_ns,
            duration_ns=duration,
            goodput_gbps=(
                entry["nbytes"] * 8.0 / duration if duration > 0 else None
            ),
            wire_bytes=result.traffic_bytes_hops,
            hot_links=result.extra.get("hot_links"),
            status="done",
        )
        result.extra.setdefault("tenant", rec.tenant)
        result.extra["fell_back"] = entry["fell_back"]
        if entry["recoveries"]:
            result.extra["recoveries"] = list(entry["recoveries"])
            result.time_ns = duration    # end-to-end, including re-runs
        if self.provenance is not None:
            self._record_switch_counters(result)
        self._pending.discard(rec.future)
        rec.future._settle(result=result)

    def _record_switch_counters(self, result) -> None:
        """Fold a settled collective's PsPIN counters into provenance:
        a switch-level tree reports each switch's one-chunk pricing run
        (``extra["switch_counters"]``), folded once per chunk."""
        for switch, counters in result.extra.get("switch_counters", {}).items():
            self.provenance.add_switch_counters(
                switch, counters, result.extra["n_chunks"]
            )

    # ------------------------------------------------------------------
    # Driving the loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest pending event (False when idle)."""
        return self.sim.step()

    def run(self, until: Optional[float] = None) -> float:
        """Run to quiescence (or ``until``); returns the fabric time."""
        self.sim.run(until=until)
        return self.sim.now

    def run_until(self, future: "CollectiveFuture") -> None:
        """Drive the shared loop until ``future`` completes."""
        # The loop stays inside the engine; settling futures raise the
        # engine's stop flag (no per-event predicate call).
        while not future._done:
            if not self.sim.run_stoppable() and not future._done:
                raise FabricError(
                    f"fabric event loop drained but collective "
                    f"{future.algorithm!r} (tenant {future.tenant!r}) never "
                    "completed — deadlocked or mis-issued schedule"
                )

    @property
    def now(self) -> float:
        """Current fabric time (ns)."""
        return self.sim.now

    @property
    def in_flight(self) -> int:
        """Collectives issued but not yet completed."""
        return len(self._pending)

    def shutdown(self) -> None:
        """Flush the attached provenance recorder (no-op without one);
        call at quiescence."""
        if self.provenance is not None:
            self.provenance.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_provenance(
        self,
        store,
        *,
        label: Optional[str] = None,
        energy_model=None,
    ):
        """Attach a provenance recorder to this fabric.

        ``store`` is a database path or an open
        :class:`~repro.provenance.store.ProvenanceStore`.  The recorder
        reuses the fabric's ``run_id``, accumulates per-switch counters
        as collectives settle, and flushes links + energy on
        :meth:`shutdown` (or an explicit ``flush_provenance``).
        Returns the recorder.
        """
        from repro.provenance.recorder import ProvenanceRecorder

        if self.provenance is not None:
            raise FabricError("a provenance recorder is already attached")
        self.provenance = ProvenanceRecorder(
            store, self, run_id=self.run_id, label=label,
            energy_model=energy_model,
        )
        return self.provenance

    def flush_provenance(self) -> None:
        """Flush the attached recorder now (idempotent; no-op when none
        is attached).  Use when the fabric keeps running after a
        measurement window ends."""
        if self.provenance is not None:
            self.provenance.flush()
    def timeline(self) -> list[dict]:
        """Per-collective trace, issue order: tenant, algorithm, start/
        finish, bytes, achieved goodput, hot links, fallbacks, and any
        mid-flight recoveries."""
        return [dict(e) for e in self._events]

    def timeline_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """The timeline as JSON; optionally written to ``path``."""
        payload = {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "topology": {k: str(v) for k, v in self.topology.describe().items()},
            "routing": self.net.router.name,
            "arbitration": self.net.arbitration,
            "now_ns": self.now,
            "tenants": list(self._tenants),
            "utilization": self.manager.utilization(),
            "events": self.timeline(),
        }
        if self.provenance is not None:
            payload["provenance_db"] = self.provenance.store.path
        if self.net.faults is not None:
            traffic = self.net.traffic
            payload["faults"] = self.fault_log()
            payload["reliability"] = {
                "drops": traffic.drops,
                "duplicates": traffic.duplicates,
                "retransmits": traffic.retransmits,
                "failed_links": sorted(
                    f"{a}-{b}" for a, b in self.topology.failed_links()
                ),
                "failed_switches": sorted(self.topology.failed_switches()),
            }
        text = json.dumps(payload, indent=indent, default=str)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def tenant_stats(self) -> dict[str, dict]:
        """Aggregate per-tenant counters derived from the timeline."""
        out: dict[str, dict] = {}
        for e in self._events:
            s = out.setdefault(
                e["tenant"],
                {
                    "collectives": 0,
                    "completed": 0,
                    "fell_back": 0,
                    "recovered": 0,
                    "bytes": 0.0,
                    "wire_bytes": 0,
                    "busy_ns": 0.0,
                },
            )
            s["collectives"] += 1
            s["bytes"] += e["nbytes"]
            if e["fell_back"]:
                s["fell_back"] += 1
            if e["recoveries"]:
                s["recovered"] += 1
            if e["status"] == "done":
                s["completed"] += 1
                s["wire_bytes"] += e["wire_bytes"] or 0
                s["busy_ns"] += e["duration_ns"] or 0.0
        return out


def load_timeline(source: str) -> dict:
    """Read a version-3 timeline envelope back into a dict.

    ``source`` is a file path or a JSON string.  ``provenance_db`` is
    added as None when no recorder was attached, so consumers can index
    it unconditionally.  Any other version raises :class:`ValueError`.
    """
    text = source
    if "{" not in source:
        with open(source) as fh:
            text = fh.read()
    payload = json.loads(text)
    version = payload.get("schema_version")
    if version != TIMELINE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported timeline schema_version {version!r}; this build "
            f"reads version {TIMELINE_SCHEMA_VERSION} only"
        )
    payload.setdefault("provenance_db", None)
    return payload
