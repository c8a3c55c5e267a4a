"""Network-manager control plane (paper Sec. 4).

Before an allreduce starts, the application contacts a *network manager*
that (1) computes a reduction tree over the switches connecting the
participating hosts, (2) assigns the allreduce a unique identifier, and
(3) installs the aggregation handler + parser rule on every switch of
the tree, telling each switch its child count and parent port.  Each
switch serves at most ``max_allreduces`` concurrently; if a switch on
the only available tree is full the request is rejected and the
application falls back to host-based allreduce — exactly the paper's
failure mode.

Admission is *pooled* rather than statically partitioned: handler
slots and switch SRAM form per-switch pools that live allreduces draw
from (:meth:`NetworkManager.admit` / :meth:`NetworkManager.release`),
and multi-tenant deployments can cap any one tenant's concurrent
reductions with ``tenant_quota`` — the arbitration the shared
:class:`repro.comm.fabric.Fabric` runs every collective through.
Overflow raises :class:`AdmissionError` (a ``RuntimeError``), which
callers answer with the paper's reject-and-fall-back-to-host behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.handler_base import HandlerConfig
from repro.core.ops import ReductionOp, SUM
from repro.core.policy import build_handler, select_algorithm


class AdmissionError(RuntimeError):
    """A switch pool (handler slots, memory) or tenant quota is full.

    Subclasses ``RuntimeError`` so legacy callers catching the static
    ``max_allreduces`` rejection keep working.
    """


@dataclass(frozen=True)
class AdmissionTicket:
    """Proof of admission: the resources one live allreduce holds."""

    ticket_id: int
    switches: tuple
    tenant: Optional[str]
    memory_bytes: float


@dataclass
class TreeNode:
    """One switch's role in a reduction tree."""

    switch_id: int
    children: list[int]           # ports facing hosts or child switches
    parent_port: Optional[int]    # None -> this switch is the root

    @property
    def is_root(self) -> bool:
        return self.parent_port is None


@dataclass
class ReductionTree:
    """A reduction tree: hosts at the leaves, switches inside.

    ``nodes`` maps switch id -> :class:`TreeNode`; ``host_to_switch``
    maps each participating host to its leaf switch.
    """

    allreduce_id: int
    nodes: dict[int, TreeNode]
    host_to_switch: dict[int, int]
    root_switch: int

    def fan_in(self, switch_id: int) -> int:
        return len(self.nodes[switch_id].children)

    def depth(self) -> int:
        """Levels of switches between a host and the root (>= 1)."""
        depth = 1
        node = None
        for sid, n in self.nodes.items():
            if not n.is_root:
                node = n
                break
        # Walk upward counting hops (trees here are small; O(depth^2) ok).
        seen = 0
        while node is not None and not node.is_root and seen < len(self.nodes):
            parent = next(
                (n for n in self.nodes.values() if node.switch_id in n.children), None
            )
            node = parent
            depth += 1
            seen += 1
        return depth


@dataclass
class InstalledAllreduce:
    """Book-keeping for one active allreduce."""

    allreduce_id: int
    tree: ReductionTree
    handler_configs: dict[int, HandlerConfig] = field(default_factory=dict)
    algorithm_label: str = ""


class NetworkManager:
    """Computes reduction trees and installs handlers on switches.

    The manager is topology-agnostic: callers hand it a mapping from
    hosts to leaf switches plus the switch-level uplink structure (for
    the single-switch experiments that is trivially one node).  The
    fat-tree embedding for Fig. 15 lives in ``repro.network.trees``.
    """

    def __init__(
        self,
        max_allreduces_per_switch: int = 8,
        *,
        switch_memory_bytes: Optional[float] = None,
        tenant_quota: Optional[int] = None,
    ) -> None:
        self.max_allreduces = max_allreduces_per_switch
        self.switch_memory_bytes = switch_memory_bytes
        self.tenant_quota = tenant_quota
        self._next_id = 1
        self._next_ticket = 1
        self._active: dict[int, InstalledAllreduce] = {}
        self._load: dict = {}        # switch key -> active allreduce count
        self._memory_used: dict = {}  # switch key -> admitted bytes
        self._tenant_active: dict[str, int] = {}
        self._tickets: dict[int, AdmissionTicket] = {}
        self._dead_switches: set = set()
        self._release_listeners: list = []

    # ------------------------------------------------------------------
    # Pooled admission (multi-tenant fabric path)
    # ------------------------------------------------------------------
    def check(
        self,
        switches: Iterable,
        *,
        tenant: Optional[str] = None,
        memory_bytes: float = 0.0,
    ) -> Optional[AdmissionError]:
        """Non-mutating admission probe.

        Runs exactly the checks :meth:`admit` runs — dead switches,
        tenant quota, handler slots, pooled memory — but reserves
        nothing.  Returns the tagged :class:`AdmissionError` that
        :meth:`admit` would raise right now, or ``None`` if it would
        succeed.  The admission-queue layer uses this to decide whether
        a waiting job can be dequeued without burning a failed
        check-and-commit round trip.
        """
        switches = tuple(switches)
        for sid in switches:
            if sid in self._dead_switches:
                return self._rejection(
                    "switch_down",
                    f"switch {sid} is out of service (failure injected); "
                    "replan the tree or fall back to host-based allreduce",
                )
        if tenant is not None and self.tenant_quota is not None:
            if self._tenant_active.get(tenant, 0) >= self.tenant_quota:
                return self._rejection(
                    "quota",
                    f"tenant {tenant!r} already runs {self.tenant_quota} "
                    "concurrent allreduces (quota); wait or fall back to "
                    "host-based allreduce",
                )
        for sid in switches:
            if self._load.get(sid, 0) >= self.max_allreduces:
                return self._rejection(
                    "slots",
                    f"switch {sid} already serves {self.max_allreduces} "
                    "allreduces; recompute the tree or fall back to "
                    "host-based allreduce",
                )
            if (
                self.switch_memory_bytes is not None
                and self._memory_used.get(sid, 0.0) + memory_bytes
                > self.switch_memory_bytes
            ):
                return self._rejection(
                    "memory",
                    f"switch {sid} memory pool exhausted "
                    f"({self._memory_used.get(sid, 0.0):.0f}"
                    f"/{self.switch_memory_bytes:.0f} B used, "
                    f"{memory_bytes:.0f} B requested); fall back to "
                    "host-based allreduce",
                )
        return None

    def admit(
        self,
        switches: Iterable,
        *,
        tenant: Optional[str] = None,
        memory_bytes: float = 0.0,
    ) -> AdmissionTicket:
        """Reserve one allreduce's resources on every listed switch.

        Checks, atomically across all ``switches``: handler slots
        (``max_allreduces`` pooled per switch), switch memory
        (``switch_memory_bytes`` pooled per switch, when configured),
        and the per-tenant concurrency quota.  Raises
        :class:`AdmissionError` naming the exhausted resource;
        on success returns a ticket for :meth:`release`.
        """
        switches = tuple(switches)
        rejection = self.check(
            switches, tenant=tenant, memory_bytes=memory_bytes
        )
        if rejection is not None:
            raise rejection
        for sid in switches:
            self._load[sid] = self._load.get(sid, 0) + 1
            self._memory_used[sid] = (
                self._memory_used.get(sid, 0.0) + memory_bytes
            )
        if tenant is not None:
            self._tenant_active[tenant] = self._tenant_active.get(tenant, 0) + 1
        ticket = AdmissionTicket(
            ticket_id=self._next_ticket,
            switches=switches,
            tenant=tenant,
            memory_bytes=memory_bytes,
        )
        self._next_ticket += 1
        self._tickets[ticket.ticket_id] = ticket
        return ticket

    @staticmethod
    def _rejection(resource: str, message: str) -> AdmissionError:
        """An :class:`AdmissionError` tagged with the exhausted pool
        (``"slots"``/``"memory"``/``"quota"``) so callers can decide
        whether falling back to a host algorithm can help."""
        exc = AdmissionError(message)
        exc.resource = resource
        return exc

    def release(self, ticket: AdmissionTicket) -> None:
        """Return a ticket's slots and memory to the pools."""
        if self._tickets.pop(ticket.ticket_id, None) is None:
            raise KeyError(f"ticket {ticket.ticket_id} is not active")
        for sid in ticket.switches:
            self._load[sid] = max(0, self._load.get(sid, 0) - 1)
            self._memory_used[sid] = max(
                0.0, self._memory_used.get(sid, 0.0) - ticket.memory_bytes
            )
        if ticket.tenant is not None:
            self._tenant_active[ticket.tenant] = max(
                0, self._tenant_active.get(ticket.tenant, 0) - 1
            )
        for cb in list(self._release_listeners):
            cb()

    def add_release_listener(self, callback) -> None:
        """``callback()`` fires after every :meth:`release` (pool
        resources just freed — queued admissions can retry)."""
        self._release_listeners.append(callback)

    # ------------------------------------------------------------------
    # Failure state (chaos/fault injection)
    # ------------------------------------------------------------------
    def fail_switch(self, switch) -> None:
        """Mark a switch dead: admission on it is refused until repair
        (resource tag ``"switch_down"``, so the fabric's fallback path
        can distinguish an outage from pool exhaustion)."""
        self._dead_switches.add(switch)

    def repair_switch(self, switch) -> None:
        self._dead_switches.discard(switch)

    def dead_switches(self) -> set:
        return set(self._dead_switches)

    def utilization(self) -> dict:
        """Live pool state (for timelines and operator dashboards)."""
        return {
            "switch_load": dict(self._load),
            "switch_memory_bytes": dict(self._memory_used),
            "tenant_active": dict(self._tenant_active),
            "admitted": len(self._tickets),
            "dead_switches": sorted(self._dead_switches),
        }

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def single_switch_tree(self, n_hosts: int, switch_id: int = 0) -> ReductionTree:
        """All hosts under one switch (the Sec. 4-6 setting)."""
        allreduce_id = self._next_id
        node = TreeNode(switch_id=switch_id, children=list(range(n_hosts)), parent_port=None)
        return ReductionTree(
            allreduce_id=allreduce_id,
            nodes={switch_id: node},
            host_to_switch={h: switch_id for h in range(n_hosts)},
            root_switch=switch_id,
        )

    def two_level_tree(
        self,
        hosts_per_leaf: dict[int, list[int]],
        root_switch: int,
        uplink_port: int = 0,
    ) -> ReductionTree:
        """Leaf switches aggregate their hosts; one root aggregates leaves.

        ``hosts_per_leaf`` maps leaf-switch id -> list of host ids.
        """
        allreduce_id = self._next_id
        nodes: dict[int, TreeNode] = {}
        host_to_switch: dict[int, int] = {}
        root_children: list[int] = []
        for leaf_id, hosts in hosts_per_leaf.items():
            if not hosts:
                continue
            nodes[leaf_id] = TreeNode(
                switch_id=leaf_id,
                children=list(range(len(hosts))),
                parent_port=uplink_port,
            )
            for h in hosts:
                host_to_switch[h] = leaf_id
            root_children.append(leaf_id)
        nodes[root_switch] = TreeNode(
            switch_id=root_switch,
            children=list(range(len(root_children))),
            parent_port=None,
        )
        return ReductionTree(
            allreduce_id=allreduce_id,
            nodes=nodes,
            host_to_switch=host_to_switch,
            root_switch=root_switch,
        )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(
        self,
        tree: ReductionTree,
        switches: dict[int, "object"],
        data_bytes: int,
        dtype_name: str = "float32",
        reproducible: bool = False,
        op: ReductionOp = SUM,
        algorithm: Optional[str] = None,
    ) -> InstalledAllreduce:
        """Install handlers for ``tree`` on the given PsPIN switches.

        Raises :class:`AdmissionError` (a ``RuntimeError``) if any
        switch already runs its maximum number of allreduces — callers
        then either recompute a tree avoiding that switch or fall back
        to host-based allreduce.
        """
        for sid in tree.nodes:
            if self._load.get(sid, 0) >= self.max_allreduces:
                raise AdmissionError(
                    f"switch {sid} already serves {self.max_allreduces} allreduces; "
                    "recompute the tree or fall back to host-based allreduce"
                )
        if algorithm is None:
            choice = select_algorithm(data_bytes, reproducible=reproducible, op=op)
        else:
            from repro.core.policy import AlgorithmChoice

            if algorithm.startswith("multi"):
                b = int(algorithm[algorithm.index("(") + 1 : algorithm.index(")")])
                choice = AlgorithmChoice("multi", b, "explicit")
            else:
                choice = AlgorithmChoice(algorithm, 1, "explicit")

        allreduce_id = self._next_id
        self._next_id += 1
        tree.allreduce_id = allreduce_id
        installed = InstalledAllreduce(
            allreduce_id=allreduce_id, tree=tree, algorithm_label=choice.label
        )
        for sid, node in tree.nodes.items():
            hconf = HandlerConfig(
                allreduce_id=allreduce_id,
                n_children=len(node.children),
                dtype_name=dtype_name,
                multicast_ports=node.children if node.is_root else None,
                reproducible=reproducible,
                op=op,
            )
            installed.handler_configs[sid] = hconf
            switch = switches.get(sid)
            if switch is not None:
                handler = build_handler(choice, hconf)
                switch.register_handler(handler)
                switch.parser.install_allreduce(allreduce_id, handler.name)
            self._load[sid] = self._load.get(sid, 0) + 1
        self._active[allreduce_id] = installed
        return installed

    def uninstall(self, allreduce_id: int, switches: dict[int, "object"]) -> None:
        """Tear down an allreduce: remove rules, decrement switch load."""
        installed = self._active.pop(allreduce_id, None)
        if installed is None:
            raise KeyError(f"allreduce {allreduce_id} is not active")
        for sid in installed.tree.nodes:
            self._load[sid] = max(0, self._load.get(sid, 0) - 1)
            switch = switches.get(sid)
            if switch is not None:
                switch.parser.uninstall(f"allreduce-{allreduce_id}")

    @property
    def active_allreduces(self) -> int:
        return len(self._active)
