"""Packet parser: configurable match rules -> handler dispatch.

Paper Sec. 3: "After a packet is received from any of the switch ports,
its headers are processed by a parser that, based on configurable
matching rules, decides if the packet must be processed by a processing
unit (or sent directly to the routing tables unit), and which function
must be executed on the packet."

The single-switch drivers (:mod:`repro.core.allreduce`,
:mod:`repro.sparse.allreduce`) install one rule per allreduce.  Rules
match on the packet's allreduce id — the behavioral analogue of
matching EtherType / IP option headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.pspin.packets import SwitchPacket

#: Sentinel: the rule table cannot be classified structurally.
OPAQUE = object()


@dataclass
class MatchRule:
    """One parser rule: predicate -> handler name (+ priority).

    Lower ``priority`` wins, mirroring longest-prefix-match tie-breaking
    in real parsers.

    ``allreduce_id`` declares (when not None) that the predicate matches
    exactly the packets of that allreduce — the structured form of the
    rule :meth:`PacketParser.install_allreduce` creates.  The packet-
    train fast path uses it to classify a whole same-allreduce train in
    O(rules) instead of probing the opaque predicate per packet.
    """

    name: str
    predicate: Callable[[SwitchPacket], bool]
    handler: str
    priority: int = 100
    allreduce_id: "int | None" = None


class PacketParser:
    """Ordered rule table; first (highest-priority) match dispatches."""

    def __init__(self) -> None:
        self._rules: list[MatchRule] = []

    def install(self, rule: MatchRule) -> None:
        """Install a rule; keeps the table priority-sorted and stable."""
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.priority)

    def uninstall(self, name: str) -> bool:
        """Remove a rule by name.  Returns True if one was removed."""
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.name != name]
        return len(self._rules) != before

    def install_allreduce(self, allreduce_id: int, handler: str = "flare") -> None:
        """Convenience: match packets of one allreduce id."""
        self.install(
            MatchRule(
                name=f"allreduce-{allreduce_id}",
                predicate=lambda p, _id=allreduce_id: p.allreduce_id == _id,
                handler=handler,
                priority=10,
                allreduce_id=allreduce_id,
            )
        )

    def classify(self, packet: SwitchPacket) -> Optional[str]:
        """Return the handler name for this packet, or None (bypass).

        None means the packet "does not need additional processing" and
        goes straight to the routing tables (Sec. 3 fn. 1).
        """
        for rule in self._rules:
            if rule.predicate(packet):
                return rule.handler
        return None

    def classify_allreduce(self, allreduce_id: int) -> "str | None | object":
        """Classify *every* packet of one allreduce without probing.

        Returns the handler name (or None for bypass) when the rule
        table is made of structured allreduce rules up to the first
        match; returns :data:`OPAQUE` when an un-introspectable rule
        could fire first, in which case the caller must fall back to
        per-packet :meth:`classify`.
        """
        for rule in self._rules:
            if rule.allreduce_id is None:
                return OPAQUE
            if rule.allreduce_id == allreduce_id:
                return rule.handler
        return None

    @property
    def rules(self) -> tuple[MatchRule, ...]:
        return tuple(self._rules)
