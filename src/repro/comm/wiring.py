"""The one reader of a request's wiring params.

A request's ``params`` hold the wiring (:data:`WIRING_PARAMS`, the
fabric the collective runs over) and the algorithm's knobs (bound to
its planner by :func:`repro.comm.plan.build_plan`).  :class:`Wiring`
reads the wiring, and nothing else does: plans, ``Fabric``, the
``Communicator``, capability matching, the cost model's link terms and
the CLI all resolve their fabric through it.
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Mapping, Optional

from repro.errors import CapabilityError
from repro.network.routing import ROUTERS, EcmpRouter, available_routers
from repro.network.topology import TOPOLOGIES, Topology, available_topologies, build_topology

#: Request params that describe the fabric rather than the algorithm;
#: ``n_clusters``/``cores_per_cluster`` size the simulated PsPIN switch
#: and ``hosts`` places the collective on a subset of the hosts.
WIRING_PARAMS = frozenset({
    "topology", "topology_params", "hosts_per_leaf", "n_spines",
    "link_gbps", "link_latency_ns", "routing", "routing_seed", "hosts",
    "n_clusters", "cores_per_cluster",
})


@lru_cache(maxsize=None)
def _init_defaults(cls: type) -> dict:
    """A topology family's constructor parameters and their defaults."""
    return {k: p.default for k, p in inspect.signature(cls.__init__).parameters.items()}


def place(params: dict, n_hosts: Optional[int]) -> Optional[int]:
    """Normalize a call's placement ``params["hosts"]`` in place to a
    tuple (equal placements share one plan) or drop it when ``None``;
    return the participant count it implies, which must agree with
    ``n_hosts``."""
    hosts = params.pop("hosts", None)
    if hosts is None:
        return n_hosts
    hosts = params["hosts"] = tuple(hosts)
    if not hosts:
        raise ValueError("placement hosts must not be empty")
    if n_hosts is not None and n_hosts != len(hosts):
        raise ValueError(f"n_hosts={n_hosts} contradicts placement of {len(hosts)} hosts")
    return len(hosts)


class Wiring:
    """The fabric one request (or constructor) runs over.

    ``topology`` is a built :class:`~repro.network.topology.Topology` or
    a family name, built from ``topology_params`` with ``n_hosts``
    forwarded to the families that take it.  Absent, it is the paper's
    fat tree for ``n_hosts`` from the legacy knobs: ``hosts_per_leaf``
    (default 8, 4 or 2, whichever divides), ``n_spines`` (default 4,
    capped at the leaf's uplinks), ``link_gbps`` and ``link_latency_ns``
    (default: the family's own).

    Parsing builds nothing.  :meth:`check` validates the names once per
    request; :attr:`shape` builds the topology on first use (in a
    constructor or on a plan-cache miss).
    """

    def __init__(self, params: Mapping, n_hosts: int) -> None:
        self._params = p = params
        self.n_requested = n_hosts
        self.routing: str = p.get("routing") or EcmpRouter.name
        self.routing_seed: int = p.get("routing_seed", 0)
        self.n_spines: int = p.get("n_spines", 4)
        self.n_clusters: int = p.get("n_clusters", 4)
        self.cores_per_cluster: int = p.get("cores_per_cluster", 8)
        self.hosts: Optional[tuple] = p.get("hosts")
        self.topology_params: Optional[dict] = p.get("topology_params")
        self._shape: Optional[Topology] = None
        topology = p.get("topology")
        self._built = topology if isinstance(topology, Topology) else None
        if self._built is not None:
            self.family = topology.family
            return
        self.family = topology or "fat-tree"
        self.kwargs = dict(self.topology_params or {})
        cls = TOPOLOGIES.get(self.family)
        if self.family == "fat-tree" and not self.kwargs:
            hpl = p.get("hosts_per_leaf") or next(
                (d for d in (8, 4, 2) if n_hosts % d == 0 and n_hosts > d), n_hosts
            )
            defaults = _init_defaults(cls)
            self.kwargs = {
                "n_hosts": n_hosts,
                "hosts_per_leaf": hpl,
                "n_spines": min(self.n_spines, hpl),
                "link_gbps": p.get("link_gbps", defaults["link_gbps"]),
                "link_latency_ns": p.get("link_latency_ns", defaults["link_latency_ns"]),
            }
        elif cls is not None and "n_hosts" in _init_defaults(cls):
            self.kwargs.setdefault("n_hosts", n_hosts)
            self.topology_params = self.kwargs

    @classmethod
    def of(cls, n_hosts: int, **params) -> "Wiring":
        """A constructor's wiring: its ``None`` arguments count as absent."""
        return cls({k: v for k, v in params.items() if v is not None}, n_hosts)

    def check(self) -> None:
        """Raise :class:`CapabilityError` for a routing policy or a
        topology family nobody registered.  Run for every request, so a
        typo cannot slide through to an algorithm that never builds the
        fabric (the single-switch PsPIN path) and would ignore it."""
        if self.routing not in ROUTERS:
            raise CapabilityError(
                f"unknown routing policy {self.routing!r}; available: {available_routers()}"
            )
        if self._built is None and self.family not in TOPOLOGIES:
            raise CapabilityError(
                f"unknown topology family {self.family!r}; "
                f"available: {available_topologies()}"
            )

    # -- read without building ----------------------------------------
    @property
    def aggregates(self) -> bool:
        """Whether the fabric's switches can aggregate in-network."""
        if self._built is not None:
            return self._built.supports_aggregation
        return bool(self.kwargs.get("aggregation", True))

    def links(self) -> tuple[float, float]:
        """The fabric's ``(link_gbps, link_latency_ns)``."""
        if self._built is not None:
            return self._built.link_gbps, self._built.link_latency_ns
        defaults = _init_defaults(TOPOLOGIES[self.family])
        return tuple(self.kwargs.get(k, defaults[k]) for k in ("link_gbps", "link_latency_ns"))

    @property
    def n_hosts(self) -> int:
        """The fabric's host count: the requested one for the default
        fat tree and for unregistered families (which fail at plan
        time), else what the topology wires."""
        if self._built is None and (
            self.family not in TOPOLOGIES
            or (self.family == "fat-tree" and not self.topology_params)
        ):
            return self.n_requested
        return self.shape.n_hosts

    def request_params(self) -> dict:
        """What a communicator stamps on each request: the names given
        (a family's params with ``n_hosts`` forwarded, a zero
        ``routing_seed`` dropped), the switch dimensions and
        ``n_spines``."""
        out = {k: v for k, v in self._params.items() if k in WIRING_PARAMS}
        out.update(n_spines=self.n_spines, n_clusters=self.n_clusters,
                   cores_per_cluster=self.cores_per_cluster)
        if self.topology_params is not None:
            out["topology_params"] = self.topology_params
        if not self.routing_seed:
            out.pop("routing_seed", None)
        return out

    # -- build ----------------------------------------------------------
    def _kwargs(self) -> dict:
        return dict(self._built.describe()) if self._built is not None else self.kwargs

    def build(self) -> Topology:
        """A topology for a new fabric: the given one, else a new build."""
        if self._built is not None:
            return self._built
        return build_topology(self.family, **self.kwargs)

    @property
    def shape(self) -> Topology:
        """The topology plans are shaped on, built once."""
        if self._shape is None:
            self._shape = self.build()
        return self._shape

    def fresh(self) -> Topology:
        """A topology with idle links for one run: :attr:`shape`
        rebuilt, with its failed switches and links."""
        topo = build_topology(self.family, **self._kwargs())
        for switch in self.shape.failed_switches():
            topo.fail_switch(switch)
        for a, b in self.shape.failed_links():
            topo.fail_link(a, b)
        return topo

    def placement(self) -> Optional[list]:
        """The placed hosts (``None``: all of :attr:`shape`'s), checked
        against the shape and the request's host count."""
        shape, n = self.shape, self.n_requested
        if self.hosts is None:
            if shape.n_hosts != n:
                raise CapabilityError(
                    f"topology {self.family!r} wires {shape.n_hosts} hosts but the "
                    f"request names {n}; size the topology (or the request) to "
                    "match, or pass params['hosts'] to place the collective on a subset"
                )
            return None
        placed, known = list(self.hosts), set(shape.hosts)
        for h in placed:
            if h not in known:
                raise CapabilityError(
                    f"placement names host {h!r} which topology {self.family!r} does not wire"
                )
        if len(set(placed)) != len(placed):
            raise CapabilityError("placement lists a host twice")
        if len(placed) != n:
            raise CapabilityError(
                f"placement names {len(placed)} hosts but the request names {n}; "
                "size the placement (or the request) to match"
            )
        return placed

    def describe(self) -> dict:
        return {"family": self.family, **self._kwargs(), "routing": self.routing}

    def check_fabric(self, net) -> None:
        """Issue-time guard: a shared fabric must wire the fabric this
        plan was shaped for, or tree node names and host lists would
        silently mismatch."""
        if net.topology.fingerprint() != self.shape.fingerprint():
            raise CapabilityError(
                f"plan was shaped for topology {self.describe()!r} but the "
                f"fabric wires {dict(net.topology.describe())!r}; attach the "
                "communicator to a matching fabric or replan"
            )
