"""Declarative fault injection: chaos scenarios for the fabric.

Real fabrics lose packets, degrade links, and kill switches mid-flight;
NetReduce (arXiv:2009.09736) treats loss recovery as a first-class
design axis and Canary (arXiv:2309.16214) re-roots aggregation trees
away from degraded links.  This module is the declarative front end:

* :class:`FaultSpec` — one fault: a target (``link`` pair, ``switch``
  name, or ``"*"`` for every link), an injection time, a ``kind``
  (``down`` / ``lossy`` / ``slow``), and kind-specific parameters plus
  an optional auto-repair ``duration_ns``;
* :class:`FaultSchedule` — an ordered list of specs with JSON
  round-tripping (the CLI's ``bench --faults spec.json``);
* :class:`FaultInjector` — arms a schedule on one
  :class:`~repro.network.simulator.NetworkSimulator`: fault application
  and repair are ordinary simulation events, per-message loss/duplicate
  decisions are process-stable (seeded
  :func:`repro.utils.rngtools.stable_hash` over the link's message
  counter), and listeners (the fabric's recovery logic) are notified of
  every applied event.

Determinism contract: the same schedule + seed produces the same drops,
duplications, and therefore the same retransmission timeline in every
process — which is what lets the chaos suites pin bitwise payloads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional

from repro.network.links import Link, LinkFault
from repro.utils.rngtools import stable_hash

#: stable_hash range (non-negative 31-bit); rates compare against it.
_HASH_SPAN = float(0x7FFFFFFF)


def _parse_link(value) -> "tuple[str, str] | str | None":
    """Normalize a link target: "a-b"/"a->b"/(a, b), or "*" for all."""
    if value is None:
        return None
    if isinstance(value, str):
        if value == "*":
            return "*"
        for sep in ("->", "-"):
            if sep in value:
                a, _, b = value.partition(sep)
                if a and b:
                    return (a.strip(), b.strip())
        raise ValueError(
            f"link spec {value!r} is not 'a-b', 'a->b', a pair, or '*'"
        )
    a, b = value
    return (str(a), str(b))


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Exactly one of ``link`` / ``switch`` names the target; ``at`` is
    the absolute injection time (ns, fabric clock).  ``duration_ns``
    schedules an automatic repair that far after injection.
    """

    kind: str = "down"
    link: "tuple[str, str] | str | None" = None
    switch: Optional[str] = None
    at: float = 0.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    slow_factor: float = 1.0
    duration_ns: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "link", _parse_link(self.link))
        if (self.link is None) == (self.switch is None):
            raise ValueError("specify exactly one of link= or switch=")
        if self.switch is not None and self.kind != "down":
            raise ValueError(
                "switch faults are outages; per-link lossy/slow faults "
                "name the link instead"
            )
        if self.link == "*" and self.kind == "down":
            raise ValueError("link='*' would partition everything; "
                             "down faults name one link")
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        # Validate kind-specific parameters eagerly via LinkFault.
        if self.kind in ("lossy", "slow"):
            self.link_fault()
        elif self.kind != "down":
            raise ValueError(
                f"unknown fault kind {self.kind!r}; use 'down', 'lossy' or 'slow'"
            )

    def link_fault(self) -> LinkFault:
        """The :class:`LinkFault` this spec applies to a link."""
        return LinkFault(
            kind=self.kind,
            loss_rate=self.loss_rate,
            duplicate_rate=self.duplicate_rate,
            slow_factor=self.slow_factor,
        )

    def describe(self) -> dict:
        out = {k: v for k, v in asdict(self).items()
               if v not in (None, 0.0, 1.0) or k in ("kind", "at")}
        if isinstance(self.link, tuple):
            out["link"] = f"{self.link[0]}-{self.link[1]}"
        return out


@dataclass
class FaultSchedule:
    """An ordered set of faults, JSON round-trippable."""

    faults: list[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def add(self, spec: FaultSpec) -> "FaultSchedule":
        self.faults.append(spec)
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_any(cls, source, seed: Optional[int] = None) -> "FaultSchedule":
        """Build from a FaultSchedule, dict, list of dicts, or a path to
        a JSON file shaped ``{"seed": 0, "faults": [{...}, ...]}``."""
        if isinstance(source, cls):
            if seed is not None:
                source.seed = seed
            return source
        if isinstance(source, str):
            with open(source) as fh:
                source = json.load(fh)
        if isinstance(source, list):
            source = {"faults": source}
        if not isinstance(source, dict):
            raise TypeError(
                f"cannot build a FaultSchedule from {type(source).__name__}"
            )
        sched = cls(
            faults=[
                spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
                for spec in source.get("faults", ())
            ],
            seed=source.get("seed", 0),
        )
        if seed is not None:
            sched.seed = seed
        return sched

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        payload = {"seed": self.seed,
                   "faults": [s.describe() for s in self.faults]}
        text = json.dumps(payload, indent=indent)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one network simulator.

    Created via ``net.arm_faults(...)``; arming disables the
    simulator's structural fast paths (next-hop memoization, burst
    trains, the uncontended-WFQ bypass) so every message takes the
    per-packet DES path where loss, duplication and retransmission are
    modeled exactly.
    """

    def __init__(self, net, seed: int = 0) -> None:
        self.net = net
        self.seed = seed
        self._salt = stable_hash("fault-injector", seed)
        #: Log of applied fault/repair events (dicts), application order.
        self.applied: list[dict] = []
        #: Every spec ever armed via :meth:`inject`, arming order.
        self.specs: list[FaultSpec] = []
        self._listeners: list[Callable[[dict], None]] = []
        self._pending = 0

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def inject(self, spec: FaultSpec) -> None:
        """Arm one fault (applied at ``max(spec.at, now)``)."""
        sim = self.net.sim
        self.specs.append(spec)
        self._pending += 1
        sim.schedule_at(max(spec.at, sim.now), self._apply, spec, priority=0)

    def on_fault(self, callback: Callable[[dict], None]) -> None:
        """``callback(event)`` after every applied fault/repair event.

        ``event`` carries ``{"event": "fault"|"repair", "kind", "link",
        "switch", "at_ns"}`` — the fabric's recovery logic hooks here.
        """
        self._listeners.append(callback)

    @property
    def pending(self) -> int:
        """Armed faults not yet applied."""
        return self._pending

    # ------------------------------------------------------------------
    # Application (simulation events)
    # ------------------------------------------------------------------
    def _target_links(self, spec: FaultSpec) -> list[Link]:
        topo = self.net.topology
        if spec.link == "*":
            return topo.links()
        a, b = spec.link
        out = []
        for key in ((a, b), (b, a)):
            try:
                out.append(topo.link(*key))
            except ValueError:
                pass
        if not out:
            raise ValueError(f"no link {a} <-> {b} in this topology")
        return out

    def _apply(self, spec: FaultSpec) -> None:
        self._pending -= 1
        topo = self.net.topology
        if spec.switch is not None:
            topo.fail_switch(spec.switch)
            self.net.on_topology_change()
        elif spec.kind == "down":
            a, b = spec.link
            topo.fail_link(a, b)
            self.net.on_topology_change()
        else:
            fault = spec.link_fault()
            for link in self._target_links(spec):
                link.fault = fault
        self._emit("fault", spec)
        if spec.duration_ns is not None:
            self.net.sim.schedule_at(
                self.net.sim.now + spec.duration_ns, self._repair, spec,
                priority=0,
            )

    def _repair(self, spec: FaultSpec) -> None:
        topo = self.net.topology
        if spec.switch is not None:
            topo.repair_switch(spec.switch)
            self.net.on_topology_change()
        elif spec.kind == "down":
            topo.repair_link(*spec.link)
            self.net.on_topology_change()
        else:
            for link in self._target_links(spec):
                if link.fault is not None and link.fault.kind == spec.kind:
                    link.fault = None
        self._emit("repair", spec)

    def _emit(self, event: str, spec: FaultSpec) -> None:
        record = {
            "event": event,
            "at_ns": self.net.sim.now,
            **spec.describe(),
        }
        if isinstance(spec.link, tuple):
            # Machine-friendly endpoints alongside the pretty "a-b"
            # string (node names may themselves contain separators).
            record["link_nodes"] = list(spec.link)
        self.applied.append(record)
        for cb in list(self._listeners):
            cb(record)

    # ------------------------------------------------------------------
    # Per-message decisions (process-stable)
    # ------------------------------------------------------------------
    def roll(self, link: Link, what: str, rate: float) -> bool:
        """Deterministic Bernoulli draw for one message on one link.

        Keyed on the link's monotone ``messages_carried`` counter, so
        the decision sequence is a pure function of (schedule, seed,
        event order) — identical in every process and across the
        fast-path kill switch.
        """
        h = stable_hash(link.src, link.dst, link.messages_carried, what,
                        salt=self._salt)
        return h < rate * _HASH_SPAN
