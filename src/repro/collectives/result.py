"""Common result type for simulated collectives.

:class:`CollectiveResult` is the one result shape every algorithm in
the registry (:mod:`repro.comm`) returns: the network schedules fill it
directly, while the switch-level PsPIN drivers wrap their native result
(kept in :attr:`CollectiveResult.raw`) so detailed counters stay
reachable through the unified API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import MIB


@dataclass
class CollectiveResult:
    """Timing and traffic outcome of one simulated collective."""

    name: str
    n_hosts: int
    vector_bytes: float          # dense-equivalent bytes per host
    time_ns: float
    traffic_bytes_hops: int      # sum over links of bytes carried
    sent_bytes_per_host: int = 0
    extra: dict = field(default_factory=dict)
    #: Registry algorithm that produced this result ("" for direct calls).
    algorithm: str = ""
    #: Reduction operator name.
    op: str = "sum"
    #: Native backend result (e.g. ``SwitchAllreduceResult``) when the
    #: algorithm has a richer result type than this common shape.
    raw: object = None

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    @property
    def traffic_gib(self) -> float:
        return self.traffic_bytes_hops / (1024**3)

    def summary(self) -> str:
        text = (
            f"{self.name}: {self.time_ms:.2f} ms, "
            f"{self.traffic_gib:.2f} GiB traffic"
        )
        if self.sent_bytes_per_host > 0:
            text += f", {self.sent_bytes_per_host / MIB:.2f} MiB sent/host"
        max_link = self.extra.get("max_link_bytes", 0.0)
        if max_link > 0:
            text += f", max-link {max_link / MIB:.2f} MiB"
            routing = self.extra.get("routing")
            if routing:
                text += f" ({routing})"
        return text
