"""Network-manager control plane (paper Sec. 4).

Before an allreduce starts, the application contacts a *network manager*
that admits it onto the switches of its reduction tree.  Each switch
serves at most ``max_allreduces`` concurrently; if a switch on the only
available tree is full the request is rejected and the application
falls back to host-based allreduce — exactly the paper's failure mode.
The trees themselves come from :mod:`repro.network.trees`; the
single-switch drivers (:mod:`repro.core.allreduce`,
:mod:`repro.sparse.allreduce`) install their handler and its allreduce id on
the switch they simulate.

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

from dataclasses import dataclass
from typing import Iterable, Optional


class AdmissionError(RuntimeError):
    """A switch pool (handler slots, memory) or tenant quota is full,
    or a switch is down.  Subclasses ``RuntimeError``."""


@dataclass(frozen=True)
class AdmissionTicket:
    """Proof of admission: the resources one live allreduce holds."""

    ticket_id: int
    switches: tuple
    tenant: Optional[str]
    memory_bytes: float


class NetworkManager:
    """Admits allreduces onto switches from pooled resources.

    The manager is topology-agnostic: a switch is any hashable key, and
    callers pass the switches of the tree they plan to use.
    """

    def __init__(
        self,
        max_allreduces_per_switch: int = 8,
        *,
        switch_memory_bytes: Optional[float] = None,
        tenant_quota: Optional[int] = None,
    ) -> None:
        if max_allreduces_per_switch < 0:
            raise ValueError(
                "max_allreduces_per_switch must be >= 0, "
                f"got {max_allreduces_per_switch}"
            )
        self.max_allreduces = max_allreduces_per_switch
        self.switch_memory_bytes = switch_memory_bytes
        self.tenant_quota = tenant_quota
        self._next_ticket = 1
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
