"""Point-to-point link model.

A link serializes messages at its line rate and adds a fixed
propagation + switching latency.  Serialization state is a
``busy_until`` timestamp: transmissions queue FIFO behind one another,
which is how congestion manifests at chunk granularity.

Reliability: a link may carry a live :class:`LinkFault` — packet loss
and duplication (``lossy``), degraded line rate (``slow``), or a hard
outage (``down``, also mirrored in :attr:`Link.failed` so the topology
layer can exclude it from path computation).  Fault state is applied by
:class:`repro.network.faults.FaultInjector`; the pristine default
(``fault is None``) costs one attribute check on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LinkFault:
    """Live degradation of one link.

    ``kind`` is ``"lossy"`` (each message dropped with ``loss_rate``
    and/or delivered twice with ``duplicate_rate``), ``"slow"``
    (serialization stretched by ``slow_factor``), or ``"down"`` (the
    link carries nothing; the topology stops routing over it).
    """

    kind: str
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    slow_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("lossy", "slow", "down"):
            raise ValueError(
                f"unknown fault kind {self.kind!r}; use 'down', 'lossy' or 'slow'"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must be in [0, 1)")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1.0")
        if self.kind == "lossy" and not (self.loss_rate or self.duplicate_rate):
            raise ValueError("a lossy fault needs loss_rate and/or duplicate_rate")
        if self.kind == "slow" and self.slow_factor == 1.0:
            raise ValueError("a slow fault needs slow_factor > 1.0")


@dataclass(slots=True)
class Link:
    """A directed link between two nodes."""

    src: str
    dst: str
    gbps: float = 100.0
    latency_ns: float = 250.0
    busy_until: float = 0.0
    bytes_carried: int = field(default=0, compare=False)
    messages_carried: int = field(default=0, compare=False)
    #: Live fault state (None = healthy), set by the fault injector.
    fault: "LinkFault | None" = field(default=None, compare=False)
    #: Hard outage flag mirrored from a "down" fault; the topology's
    #: path computation skips failed links.
    failed: bool = field(default=False, compare=False)
    #: Cached bytes/ns divisor (bit-identical to the historical
    #: ``gbps * 1e9 / 8.0 / 1e9`` chain); transmit() is the hottest call
    #: in network simulations, so the chain is evaluated once.  The WFQ
    #: link service runs transmit() inline on a free link and reads it.
    _rate: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        if self.gbps <= 0:
            raise ValueError("link rate must be positive")
        self._rate = self.gbps * 1e9 / 8.0 / 1e9

    def set_gbps(self, gbps: float) -> None:
        """Re-rate the link, rebuilding the cached bytes/ns divisor.

        Mutating :attr:`gbps` directly would leave ``_rate`` stale;
        every re-rating must go through here (or
        ``Topology.set_link_rate``, which also fans the change out to
        registered listeners — e.g. the FIFO windows' rate table).
        """
        if gbps <= 0:
            raise ValueError("link rate must be positive")
        self.gbps = gbps
        self._rate = gbps * 1e9 / 8.0 / 1e9

    @property
    def bytes_per_ns(self) -> float:
        return self._rate

    def transmit(self, nbytes: int, when: float) -> float:
        """Queue ``nbytes`` at time ``when``; returns arrival time at dst.

        The head of the message leaves when the link frees; arrival is
        after full serialization plus propagation (store-and-forward).
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        busy = self.busy_until
        start = when if when > busy else busy
        rate = self._rate
        fault = self.fault
        if fault is not None and fault.kind == "slow":
            rate = rate / fault.slow_factor
        self.busy_until = busy = start + nbytes / rate
        self.bytes_carried += nbytes
        self.messages_carried += 1
        return busy + self.latency_ns

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)

    @property
    def busy_ns(self) -> float:
        """Serialization occupancy: time this link spent transmitting.

        Derived from ``bytes_carried / rate`` rather than accumulated
        per message: ``bytes_carried`` is an exact integer however it was
        summed (FIFO hop windows add it in batches), so one division
        gives a per-event run's busy time bitwise, where float
        accumulation would depend on summation order; and it costs
        nothing on the transmit hot path.  Under a mid-run ``slow`` fault
        this is an estimate at the healthy line rate.
        """
        if not self._rate:
            return 0.0
        return self.bytes_carried / self._rate
