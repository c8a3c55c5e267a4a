"""The `Communicator` facade — the library's front door.

One NCCL/torch.distributed-style object serving every allreduce flavor
in the repository through a single request/result shape::

    comm = Communicator(n_hosts=16)
    result = comm.allreduce("1MiB")                      # auto-selected
    result = comm.allreduce("1MiB", algorithm="ring")    # explicit
    future = comm.iallreduce("1MiB")                     # non-blocking
    ...
    future.result()

Plans are cached by request shape (LRU), so the production steady
state — the same allreduce issued every iteration — performs tree
construction, handler selection, and message sizing exactly once.

A communicator is one *tenant* of a :class:`~repro.comm.fabric.Fabric`:
attach several to one fabric (``fabric.communicator(name=...,
weight=...)``) and their in-flight collectives interleave in the
fabric's single event loop, contending for links and switch resources
under per-tenant QoS arbitration.  A lone ``Communicator(...)`` runs
each blocking call on a fresh one-tenant fabric (``plan.execute``) and
creates a private fabric, wired from its defaults, on first
non-blocking use; ``iallreduce`` of a shape that fabric does not wire
raises ``CapabilityError``, as on any fabric.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Optional, Union

import numpy as np

from repro.collectives.result import CollectiveResult
from repro.comm.future import CollectiveFuture
from repro.comm.plan import CacheInfo, CollectivePlan, PlanCache, build_plan
from repro.comm.registry import iter_algorithms, resolve
from repro.comm.request import CollectiveRequest
from repro.comm.wiring import WIRING_PARAMS, Wiring, place
from repro.core.ops import ReductionOp

#: Keyword arguments of ``allreduce``/``iallreduce`` that tune a single
#: execution rather than the plan (excluded from the cache key).
EXECUTE_KEYS = frozenset({"seed", "jitter", "cold_start", "verify"})


class Communicator:
    """Issues collectives over a fixed set of participants.

    Parameters
    ----------
    n_hosts:
        Default participant count (payload-carrying calls infer it from
        the payload's leading dimension instead).
    topology:
        Wiring for the network-schedule algorithms: a family name from
        :func:`repro.network.available_topologies` (built from
        ``topology_params``) or a prebuilt
        :class:`~repro.network.topology.Topology`.  ``None`` keeps the
        paper's fat tree sized from ``hosts_per_leaf``/``n_spines``.
        A family's host count sizes the communicator; families that
        take ``n_hosts`` get this one forwarded.
    routing:
        Path-selection policy (``"shortest"``/``"ecmp"``/
        ``"adaptive"``); default is seeded deterministic ECMP.
    hosts_per_leaf, n_spines:
        Default fat-tree shape when no ``topology`` is given.
    n_clusters, cores_per_cluster:
        Simulated switch dimensions for the PsPIN-level algorithms.
        Defaults for all of these: :class:`~repro.comm.wiring.Wiring`.
    plan_cache_size:
        LRU capacity of the plan cache (keyed on request shape and
        topology fingerprint).
    fabric:
        Attach this communicator as a tenant of a shared
        :class:`~repro.comm.fabric.Fabric` (whose topology and routing
        it then inherits — passing conflicting wiring raises).  ``None``
        keeps the communicator standalone; a private fabric is created
        implicitly the first time :meth:`iallreduce` needs one.
    name, weight:
        Tenant identity and QoS share in the fabric's link arbitration
        (only meaningful with a shared fabric).
    auto_mode:
        Default selection strategy for ``algorithm="auto"`` requests:
        ``"static"`` (the priority ladder) or ``"cost"`` (the fitted
        cost model of :mod:`repro.comm.planner`, congestion-aware when
        fabric-attached).  Per-call ``auto_mode=...`` overrides.
    """

    def __init__(
        self,
        n_hosts: int = 64,
        *,
        topology=None,
        topology_params: Optional[dict] = None,
        routing: Optional[str] = None,
        routing_seed: int = 0,
        hosts_per_leaf: Optional[int] = None,
        n_spines: Optional[int] = None,
        n_clusters: Optional[int] = None,
        cores_per_cluster: Optional[int] = None,
        plan_cache_size: int = 64,
        fabric=None,
        name: Optional[str] = None,
        weight: float = 1.0,
        auto_mode: Optional[str] = None,
    ) -> None:
        if n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        if not 0 < weight < math.inf:      # also rejects nan
            raise ValueError(f"tenant weight must be positive and finite, got {weight!r}")
        if fabric is not None:
            if topology is not None or topology_params is not None:
                raise ValueError(
                    "a fabric-attached communicator inherits the fabric's "
                    "topology; do not pass topology/topology_params"
                )
            topology = fabric.topology
            if routing is None:
                routing = fabric.routing
                routing_seed = fabric.routing_seed
        wiring = Wiring.of(
            n_hosts, topology=topology, topology_params=topology_params,
            routing=routing, routing_seed=routing_seed,
            hosts_per_leaf=hosts_per_leaf, n_spines=n_spines,
            n_clusters=n_clusters, cores_per_cluster=cores_per_cluster,
        )
        # A topology's host count sizes the communicator.
        self.n_hosts = wiring.n_requested = wiring.n_hosts
        #: The wiring of every request that overrides none of it.
        self._wiring = wiring
        self.name = name
        self.weight = float(weight)
        self._defaults: dict = wiring.request_params()
        if auto_mode is not None:
            self._defaults["auto_mode"] = auto_mode
        # What every call reads loads here, not on the first call: the
        # registry's built-ins and, for the cost mode, its planner.
        import repro.comm.backends  # noqa: F401
        if auto_mode == "cost":
            import repro.comm.planner  # noqa: F401
        self._cache = PlanCache(plan_cache_size)
        self.plans_built = 0
        self._fabric = fabric
        self._attached = fabric is not None
        if fabric is not None:
            self.name = fabric._register(self)

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def make_request(
        self,
        data,
        *,
        op: Union[str, ReductionOp] = "sum",
        algorithm: str = "auto",
        dtype: Optional[str] = None,
        reproducible: bool = False,
        sparse: bool = False,
        density: float = 1.0,
        n_hosts: Optional[int] = None,
        **params,
    ) -> tuple[CollectiveRequest, Optional[np.ndarray]]:
        """Normalize ``data`` into a (request, payloads) pair.

        ``data`` is either a size (int/"64KiB" — size-only simulation)
        or per-host payloads (ndarray / sequence of arrays with the
        host dimension first — the values are actually reduced).

        ``hosts=(...)`` (a placement) restricts the collective to that
        host subset of the topology; it implies (and must agree with)
        ``n_hosts``, and is normalized to a tuple so equal placements
        share one plan-cache entry.
        """
        if "hosts" in params:
            n_hosts = place(params, n_hosts)
        payloads: Optional[np.ndarray] = None
        if isinstance(data, np.ndarray) or (
            isinstance(data, (list, tuple))
            and len(data) > 0
            and isinstance(data[0], np.ndarray)
        ):
            try:
                payloads = np.asarray(data)
            except ValueError as exc:     # ragged list of arrays
                raise ValueError(
                    "payload arrays must stack into one dense "
                    "(n_hosts, ...) array — every host's array needs the "
                    "same shape and dtype"
                ) from exc
            if payloads.ndim < 2:
                raise ValueError(
                    "payload arrays need shape (n_hosts, ...); got "
                    f"{payloads.shape}"
                )
            inferred_hosts = payloads.shape[0]
            if n_hosts is not None and n_hosts != inferred_hosts:
                raise ValueError(
                    f"n_hosts={n_hosts} contradicts payload shape "
                    f"{payloads.shape}"
                )
            n_hosts = inferred_hosts
            nbytes: Union[int, float, str] = payloads[0].nbytes
            if dtype is None:
                dtype = str(payloads.dtype)
        else:
            nbytes = data
        request = CollectiveRequest(
            nbytes=nbytes,
            n_hosts=n_hosts if n_hosts is not None else self.n_hosts,
            op=op,
            dtype=dtype or "float32",
            algorithm=algorithm,
            reproducible=reproducible,
            sparse=sparse,
            density=density,
            params={**self._defaults, **params},
        )
        if request.n_hosts == self.n_hosts and not params.keys() & WIRING_PARAMS:
            request._wiring = self._wiring
        return request, payloads

    # ------------------------------------------------------------------
    # Plan / execute
    # ------------------------------------------------------------------
    def plan(
        self,
        request: Optional[CollectiveRequest] = None,
        /,
        payloads: Optional[np.ndarray] = None,
        **kwargs,
    ) -> CollectivePlan:
        """Resolve and plan ``request``, consulting the plan cache.

        Accepts either a prebuilt :class:`CollectiveRequest` or the
        keyword form ``comm.plan(nbytes=..., algorithm=...)``.
        ``payloads`` (when the caller has them) steer auto selection to
        an algorithm that can actually execute them.
        """
        if request is None:
            data = kwargs.pop("nbytes", None) or kwargs.pop("data", None)
            if data is None:
                raise TypeError("plan() needs a request or nbytes=...")
            for key in EXECUTE_KEYS:      # execute-time knobs never shape a plan
                kwargs.pop(key, None)
            request, inferred = self.make_request(data, **kwargs)
            if payloads is None:
                payloads = inferred
        if (
            request.algorithm == "auto" and self._fabric is not None
            and request.params.get("auto_mode") == "cost"
        ):
            from repro.comm.planner import note_congestion

            note_congestion(request, self._fabric)
        entry = resolve(request, payloads)

        def factory() -> CollectivePlan:
            self.plans_built += 1
            return build_plan(request, entry)

        key = (entry.name,) + request.signature()
        return self._cache.get_or_build(key, factory)

    def allreduce(
        self,
        data,
        op: Union[str, ReductionOp] = "sum",
        algorithm: str = "auto",
        **kwargs,
    ) -> CollectiveResult:
        """Blocking allreduce; returns the unified result.

        Standalone communicators execute the plan directly, on a fresh
        one-tenant fabric per call (:meth:`CollectivePlan.execute`);
        tenants of a shared fabric issue into the fabric's loop and
        drive it to completion, so blocking calls still contend with
        other tenants' in-flight work.
        """
        if self._attached:
            future = self.iallreduce(data, op=op, algorithm=algorithm, **kwargs)
            result = future.result()
            self._fabric.run()      # drain the other tenants' work too
            return result
        plan, payloads, run_knobs = self._plan_call(data, op, algorithm, kwargs)
        return plan.execute(payloads, **run_knobs)

    def iallreduce(
        self,
        data,
        op: Union[str, ReductionOp] = "sum",
        algorithm: str = "auto",
        **kwargs,
    ) -> CollectiveFuture:
        """Non-blocking allreduce; returns a future immediately.

        Planning happens synchronously (so capability errors raise at
        the call site and the plan cache is warmed); the collective's
        events are then issued into the owning fabric's single event
        loop, where they interleave — and contend — with every other
        in-flight collective on the fabric.  ``future.result()`` (or
        ``wait_all``/``wait_any``) drives the loop to completion.
        """
        plan, payloads, run_knobs = self._plan_call(data, op, algorithm, kwargs)
        return self._ensure_fabric().issue(
            self, plan, payloads, run_knobs, tenant=self.name, weight=self.weight
        )

    def _plan_call(self, data, op, algorithm, kwargs: dict) -> tuple:
        """Plan one call: ``(plan, payloads, run knobs)``, the run knobs
        (:data:`EXECUTE_KEYS`) split off the request's params."""
        run_knobs = {k: kwargs.pop(k) for k in tuple(kwargs) if k in EXECUTE_KEYS}
        request, payloads = self.make_request(data, op=op, algorithm=algorithm, **kwargs)
        return self.plan(request, payloads=payloads), payloads, run_knobs

    # ------------------------------------------------------------------
    # Fabric attachment
    # ------------------------------------------------------------------
    @property
    def fabric(self):
        """The fabric this communicator issues into (None until one
        exists — attach explicitly or call :meth:`iallreduce` once)."""
        return self._fabric

    def _ensure_fabric(self):
        if self._fabric is None:
            from repro.comm.fabric import Fabric

            wiring = self._wiring
            fabric = Fabric(
                wiring.build(), routing=wiring.routing,
                routing_seed=wiring.routing_seed,
            )
            self.name = fabric._register(self)
            self._fabric = fabric
        return self._fabric

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Plan-cache counters (hits == executions that skipped planning)."""
        return self._cache.info()

    def clear_cache(self) -> None:
        self._cache.clear()

    @staticmethod
    def algorithms() -> list[dict]:
        """Registry listing: name, declared capabilities and knobs (with
        their defaults) per algorithm."""
        return [
            {"name": entry.name, **asdict(entry.caps), "knobs": entry.knobs}
            for entry in iter_algorithms()
        ]

    def close(self) -> None:
        """Drain in-flight collectives (drives the fabric loop dry)."""
        if self._fabric is not None:
            self._fabric.run()

    def __enter__(self) -> "Communicator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
