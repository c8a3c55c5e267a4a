"""Plan/execute separation and the LRU plan cache.

Planning — algorithm resolution, topology shaping, tree construction,
handler selection, message sizing — happens once per request *shape*;
execution happens per collective.  :class:`PlanCache` keys plans on
:meth:`CollectiveRequest.signature`, which folds in the *topology
fingerprint* (family + parameters): two equal-but-distinct topology
objects share one plan, while changing the wiring or the routing
policy replans.  The production steady state (the same allreduce
issued every training iteration) pays the planning cost exactly once
and every later call goes straight to the data plane.

Execution has one driver: a plan's issuer runs on a
:class:`~repro.comm.fabric.Fabric`, and a standalone
:meth:`CollectivePlan.execute` issues it into a fresh one-tenant
fabric.  Only the switch-level drivers keep a standalone run of their
own, the single-switch PsPIN simulation.
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.collectives.result import CollectiveResult
from repro.comm.registry import AlgorithmCaps, AlgorithmEntry, bind_knobs
from repro.comm.request import CollectiveRequest

#: The one knob of a run on a fabric, ``seed``: network schedules are
#: deterministic and leave it unused (the CLI bench passes it to every
#: algorithm).
_FABRIC_RUN = inspect.Signature(
    [inspect.Parameter("seed", inspect.Parameter.KEYWORD_ONLY, default=0)]
)


@dataclass
class IssueContext:
    """Execution context for a collective issued into a fabric.

    ``net`` is the fabric's shared :class:`NetworkSimulator`; ``flow``
    is the id the collective's messages carry (link arbitration and
    per-tenant traffic accounting key on it); ``finish(result)`` must
    be called exactly once, from inside the event loop, when the
    collective completes.
    """

    net: object
    flow: object
    finish: Callable[[CollectiveResult], None]


#: ``issuer(ctx, payloads, overrides) -> None`` — injects one
#: collective's events into ``ctx.net`` starting at ``ctx.net.now`` and
#: arranges for ``ctx.finish(result)`` when it completes; ``overrides``
#: holds the run's knobs, checked by :meth:`CollectivePlan.check_run`.
#: Every planner provides one.
Issuer = Callable[[IssueContext, Optional[object], dict], None]


@dataclass
class PlannedExecution:
    """What a planner hands back: the fabric issuer and setup metadata;
    ``standalone(payloads, *, knob=default, ...)`` is the switch-level
    drivers' single-switch run, which their ``plan.execute`` calls
    instead of issuing into a fabric (its keyword-only parameters are
    the knobs it takes); ``tree`` is an in-network schedule's
    aggregation tree."""

    issuer: Issuer
    setup: dict = field(default_factory=dict)
    standalone: Optional[Callable[..., CollectiveResult]] = None
    tree: Optional[object] = None


@dataclass
class CollectivePlan:
    """A planned collective, executable many times.

    ``setup`` records what planning decided (tree shape, handler,
    per-round sizes, memory estimates) for introspection; ``executions``
    counts data-plane runs of this plan.
    """

    request: CollectiveRequest
    algorithm: str
    caps: AlgorithmCaps
    setup: dict
    _planned: PlannedExecution
    executions: int = 0

    def execute(self, payloads: Optional[object] = None, **knobs) -> CollectiveResult:
        """Run the collective once; planning work is *not* repeated.

        Issued into a fresh one-tenant :class:`~repro.comm.fabric.Fabric`
        (clock at 0, ``fallback`` off) wired by the request's topology,
        routing and seed; a switch-level driver runs its single-switch
        simulation instead.  A knob the run does not take raises
        :class:`~repro.comm.registry.UnknownKnobError` before it starts.
        """
        run = self._planned.standalone
        if run is None:
            from repro.comm.fabric import Fabric

            wiring = self.request.wiring
            fabric = Fabric(
                wiring.fresh(), routing=wiring.routing,
                routing_seed=wiring.routing_seed, fallback=False,
            )
            return fabric.issue(None, self, payloads, knobs).result()
        if knobs:
            bind_knobs(
                inspect.signature(run), f"a standalone {self.algorithm!r} run",
                payloads, **knobs,
            )
        return self._stamp(run(payloads, **knobs))

    def check_run(self, knobs: dict) -> None:
        """Raise :class:`~repro.comm.registry.UnknownKnobError` unless a
        run of this plan on a fabric takes ``knobs`` (only ``seed``)."""
        if knobs:
            bind_knobs(_FABRIC_RUN, f"a {self.algorithm!r} run on a fabric", **knobs)

    def _stamp(self, result: CollectiveResult) -> CollectiveResult:
        result.algorithm = self.algorithm
        result.op = self.request.op_name
        self.executions += 1
        return result

    def issue(
        self, ctx: IssueContext, payloads: Optional[object] = None, **overrides
    ) -> None:
        """Inject one execution into a shared event loop (fabric path).

        ``ctx.finish`` receives the stamped result when the collective
        completes; planning work is *not* repeated.
        """
        finish = ctx.finish
        self._planned.issuer(
            IssueContext(ctx.net, ctx.flow, lambda result: finish(self._stamp(result))),
            payloads,
            overrides,
        )

    @property
    def tree(self):
        """The aggregation tree the plan issues over (``None`` for host
        schedules)."""
        return self._planned.tree

    @cached_property
    def tree_switches(self) -> tuple:
        """The tree's switches, root first: what admission reserves."""
        return tuple(self.tree.switches()) if self.tree is not None else ()

    def describe(self) -> str:
        lines = [f"plan: {self.algorithm} ({self.caps.description or 'no description'})"]
        for key, value in sorted(self.setup.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def build_plan(request: CollectiveRequest, entry: AlgorithmEntry) -> CollectivePlan:
    """Invoke ``entry``'s planner on ``request`` (the expensive step).

    ``request.params`` are bound to the planner's knobs first
    (:meth:`AlgorithmEntry.bind`), so an undeclared knob raises
    :class:`~repro.comm.registry.UnknownKnobError`, and a ``dtype``
    numpy cannot parse raises ``ValueError``, before any planning.  The
    dtype is part of the plan-cache key, so each is checked once.
    """
    try:
        np.dtype(request.dtype)
    except (TypeError, ValueError):
        raise ValueError(f"dtype {request.dtype!r} is not a numpy dtype") from None
    bound = entry.bind(request)
    planned = entry.planner(*bound.args, **bound.kwargs)
    return CollectivePlan(
        request=request,
        algorithm=entry.name,
        caps=entry.caps,
        setup=dict(planned.setup),
        _planned=planned,
    )


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int


class PlanCache:
    """Thread-safe LRU cache of :class:`CollectivePlan` by request shape."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._plans: OrderedDict[tuple, CollectivePlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(
        self, key: tuple, factory: Callable[[], CollectivePlan]
    ) -> CollectivePlan:
        """Return the cached plan for ``key``, building it on a miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
        # Build outside the lock: planning may be slow, and concurrent
        # misses on the same key just do the work twice (last one wins).
        plan = factory()
        with self._lock:
            self.misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                currsize=len(self._plans),
                maxsize=self.maxsize,
            )

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
