"""Span tracing for the ledger's traced child process.

The program under test is not edited: :func:`instrument` wraps public
entry points of its classes and of the engine instances that
``build_engine`` returns, and only in the one child process that runs a
traced rep.  Each wrapped call becomes a span (name, parent, start,
end) while the tracer's root span is open; outside the timed region the
wrappers pass straight through.

A layer's *self time* is the time its spans cover minus the time their
child spans cover, so the self times of all layers plus the root's
(``bench``, the benchmark's own loop code) add up to the traced host
time exactly.  ``pspin.engine`` has no public boundary below it, so it
also carries the network simulator's per-hop handling.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "bench"


class Clock:
    """Host time of a workload's timed region.

    ``with clock():`` times one interval; a closed loop times each op
    and checks its output between intervals, an open loop times its
    whole run once.  With a tracer, each interval is a root span.
    """

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.total_s = 0.0
        self._tracer = tracer

    @contextlib.contextmanager
    def __call__(self):
        tracer = self._tracer
        root = tracer.enter(tracer.name_id(ROOT)) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.total_s += time.perf_counter() - t0
            if root is not None:
                tracer.exit(root)


class Tracer:
    """In-memory span store: four flat columns, one row per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        #: ``(sim, net)`` pairs built by ``build_engine`` in this process.
        self.engines: list = []

    @property
    def active(self) -> bool:
        return len(self._stack) > 1

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each call inside the root is a ``name``
        span; ``on_result(args, result)`` runs after the call, inside
        the span, to count what the layer did."""
        nid = self.name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(stack) == 1:
                return fn(*args, **kwargs)
            i = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                self.exit(i)

        return traced

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """``{layer: {"calls", "self_s"}}`` plus the root's host time."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        self_ns = dur - children
        per_name = np.bincount(names, weights=self_ns, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        layers = {
            name: {"calls": int(calls[i]), "self_s": float(per_name[i]) / 1e9}
            for i, name in enumerate(self.names)
        }
        host_ns = float(dur[names == self._ids[ROOT]].sum())
        return {"host_s": host_ns / 1e9, "layers": layers}

    def write(self, path: str) -> None:
        """All spans as columns; times in ns from the first span."""
        base = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start_ns": [t - base for t in self.start],
                    "end_ns": [t - base for t in self.end],
                },
                fh,
            )


def layer_metrics(summary: dict, counts: Counter, program: dict, ops: int) -> dict:
    """The per-layer metrics of one traced rep.

    ``program`` holds what the program itself counted over the timed
    region: engine events, traffic, plan-cache deltas, queue and
    provenance figures (see ``run.py``).
    """
    layers = summary["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)

    def per(num, den):
        return num / den if den else 0.0

    packets = counts["pspin.switch.packets"]
    events = program["events"]
    lookups = program["plan_hits"] + program["plan_misses"]
    return {
        "pspin.switch.calls": calls("pspin.switch"),
        "pspin.switch.self_s": self_s("pspin.switch"),
        "pspin.switch.packets": packets,
        "pspin.switch.ns_per_packet": per(self_s("pspin.switch") * 1e9, packets),
        "pspin.switch.fastpath_ratio": per(
            counts["pspin.switch.fastpath"], calls("pspin.switch")
        ),
        "pspin.switch.deferred_arrivals": counts["pspin.switch.deferred_arrivals"],
        "sparse.switch.calls": calls("sparse.switch"),
        "sparse.switch.self_s": self_s("sparse.switch"),
        "sparse.switch.bytes": counts["sparse.switch.bytes"],
        "pspin.engine.events": events,
        "pspin.engine.self_s": self_s("pspin.engine"),
        "pspin.engine.ns_per_event": per(self_s("pspin.engine") * 1e9, events),
        "network.send.calls": calls("network.send"),
        "network.send_burst.calls": calls("network.send_burst"),
        "network.send.self_s": self_s("network.send", "network.send_burst"),
        "network.messages": program["messages"],
        "network.drops": program["drops"],
        "network.retransmits": program["retransmits"],
        "network.max_link_bytes": program["max_link_bytes"],
        "collectives.issue.self_s": self_s("collectives.issue"),
        "collectives.deliver.calls": calls("collectives.deliver"),
        "collectives.deliver.self_s": self_s("collectives.deliver"),
        "comm.plan.calls": calls("comm.plan"),
        "comm.plan.self_s": self_s("comm.plan"),
        "comm.plan.hit_ratio": per(program["plan_hits"], lookups),
        "comm.plans_built": program["plans_built"],
        "comm.resolve.self_s": self_s("comm.resolve"),
        "comm.issue.calls": calls("comm.issue"),
        "comm.issue.self_s": self_s("comm.issue"),
        "comm.fallbacks": program["fallbacks"],
        "core.admit.calls": calls("core.admit"),
        "core.admit.rejects": counts["core.admit.rejects"],
        "core.admit.self_s": self_s("core.admit"),
        "core.check.calls": calls("core.check"),
        "service.run.self_s": self_s("service.run"),
        "service.queue.enqueued": program["queue_enqueued"],
        "service.queue.mean_wait_ns": program["queue_mean_wait_ns"],
        "service.plan_calls_per_op": per(calls("comm.plan"), ops),
        "provenance.self_s": self_s("provenance"),
        "provenance.rows": program["provenance_rows"],
        "network.parallel.w1_host_s": program["w1_host_s"],
        "bench.self_s": self_s(ROOT),
    }


def instrument(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries for this process.

    Call before the workload's set-up, so engines and service callbacks
    created during set-up are wrapped too.
    """
    import repro.comm.communicator as communicator
    import repro.comm.fabric as fabric
    import repro.pspin.pdes as pdes
    from repro.comm.future import CollectiveFuture
    from repro.comm.plan import CollectivePlan
    from repro.core.allreduce import SwitchAllreducePlan
    from repro.core.manager import AdmissionError, NetworkManager
    from repro.provenance.recorder import ProvenanceRecorder
    from repro.service.engine import FabricService

    counts = tracer.counts
    span = tracer.span

    def service_callback(fn):
        """The service's own handlers, which it registers with the
        fabric and engine, count as ``service.run``."""
        if getattr(fn, "__module__", None) == "repro.service.engine":
            return span("service.run", fn)
        return fn

    # -- pspin.engine / network / collectives: the engine instances ----
    build_engine = pdes.build_engine

    def traced_build_engine(*args, **kwargs):
        sim, net = build_engine(*args, **kwargs)
        tracer.engines.append((sim, net))
        for method in ("run", "run_stoppable", "step"):
            setattr(sim, method, span("pspin.engine", getattr(sim, method)))
        schedule_at = sim.schedule_at

        def wrapped_schedule_at(t, callback, *cb_args, priority=1):
            return schedule_at(t, service_callback(callback), *cb_args, priority=priority)

        sim.schedule_at = wrapped_schedule_at
        net.send = span("network.send", net.send)
        net.send_burst = span("network.send_burst", net.send_burst)
        on_deliver = net.on_deliver

        def wrapped_on_deliver(node, callback, flow=None):
            if callback.__module__.startswith("repro."):
                callback = span("collectives.deliver", callback)
            return on_deliver(node, callback, flow)

        net.on_deliver = wrapped_on_deliver
        return sim, net

    pdes.build_engine = traced_build_engine
    fabric.build_engine = traced_build_engine

    # -- comm ----------------------------------------------------------
    communicator.resolve = span("comm.resolve", communicator.resolve)
    Comm = communicator.Communicator
    Comm.plan = span("comm.plan", Comm.plan)
    Comm.iallreduce = span("comm.issue", Comm.iallreduce)

    # -- collectives / sparse switch ----------------------------------
    CollectivePlan.issue = span("collectives.issue", CollectivePlan.issue)
    def sparse_counts(args, r) -> None:
        counts["sparse.switch.bytes"] += int(r.traffic_bytes_hops)

    sparse_execute = span("sparse.switch", CollectivePlan.execute, sparse_counts)
    plain_execute = CollectivePlan.execute

    def execute(self, *args, **kwargs):
        if self.algorithm == "flare_switch_sparse":
            return sparse_execute(self, *args, **kwargs)
        return plain_execute(self, *args, **kwargs)

    CollectivePlan.execute = execute

    # -- pspin.switch --------------------------------------------------
    def switch_counts(args, r) -> None:
        counts["pspin.switch.packets"] += r.n_blocks * r.n_children
        counts["pspin.switch.fastpath"] += int(r.fast_path_used)
        counts["pspin.switch.deferred_arrivals"] += r.deferred_arrivals

    SwitchAllreducePlan.execute = span(
        "pspin.switch", SwitchAllreducePlan.execute, switch_counts
    )

    # -- core admission ------------------------------------------------
    admit = span("core.admit", NetworkManager.admit)

    def counted_admit(self, *args, **kwargs):
        try:
            return admit(self, *args, **kwargs)
        except AdmissionError:
            if tracer.active:
                counts["core.admit.rejects"] += 1
            raise

    NetworkManager.admit = counted_admit
    NetworkManager.check = span("core.check", NetworkManager.check)

    # -- service: run() and the callbacks it hands to the fabric -------
    FabricService.run = span("service.run", FabricService.run)
    on_pool_release = fabric.Fabric.on_pool_release
    fabric.Fabric.on_pool_release = (
        lambda self, callback: on_pool_release(self, service_callback(callback))
    )
    add_done_callback = CollectiveFuture.add_done_callback
    CollectiveFuture.add_done_callback = (
        lambda self, fn: add_done_callback(self, service_callback(fn))
    )

    # -- provenance ----------------------------------------------------
    for method in ("add_switch_counters", "tick", "flush"):
        setattr(
            ProvenanceRecorder, method,
            span("provenance", getattr(ProvenanceRecorder, method)),
        )
