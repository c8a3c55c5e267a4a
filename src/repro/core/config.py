"""Flare allreduce configuration.

Gathers the paper's symbols in one place (Table 2 plus Sec. 3/4/6
constants) so models, handlers and experiment drivers agree on
parameters and their units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pspin.costs import DTYPES, CostModel, DType, get_dtype
from repro.utils.units import parse_size


@dataclass
class FlareConfig:
    """Parameters of one Flare allreduce on one switch.

    Symbols (paper Table 2): K = total cores, S = scheduling subset
    size, P = packets per block (children in the reduction tree),
    delta = mean packet interarrival (cycles), delta_c = mean intra-block
    interarrival (cycles), tau = core service time, N = elements per
    packet, Z = elements reduced in total.
    """

    #: Switch dimensions.
    n_clusters: int = 64
    cores_per_cluster: int = 8
    n_ports: int = 64
    port_gbps: float = 100.0

    #: Reduction-tree fan-in: packets per block == children count (P).
    children: int = 64

    #: Scheduling subset size S (defaults to C = cores_per_cluster).
    subset_size: int | None = None

    #: Packet payload size and element type.
    packet_bytes: int = 1024
    dtype_name: str = "float32"

    #: Total data reduced per host, in bytes (Z * element size).
    data_bytes: int = 1024 * 1024

    #: Whether hosts apply staggered sending (Sec. 5).
    staggered: bool = True

    #: Require bitwise-reproducible floating-point aggregation (F3).
    reproducible: bool = False

    #: How the switch is fed for the closed-form models:
    #: "line"     — full aggregate line rate of the ports;
    #: "balanced" — exactly the processing capacity K/L, the paper's
    #:              Sec. 5 assumption that "the interarrival time to the
    #:              processing unit is larger or equal than its service
    #:              time" (the modeled Figs. 7/10/13 operate here);
    #: a float    — explicit delta in cycles.
    feed: str | float = "balanced"

    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        self.data_bytes = parse_size(self.data_bytes)
        self.packet_bytes = parse_size(self.packet_bytes)
        if self.subset_size is None:
            self.subset_size = self.cores_per_cluster
        if self.packet_bytes <= 0 or self.data_bytes <= 0:
            raise ValueError("packet_bytes and data_bytes must be positive")
        if self.children < 1:
            raise ValueError("children must be >= 1")
        for name in ("n_clusters", "cores_per_cluster"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # An unsupported dtype still fails lazily, in `dtype`.
        element = DTYPES.get(self.dtype_name)
        if element is not None and self.packet_bytes < element.size_bytes:
            raise ValueError(
                f"packet_bytes ({self.packet_bytes}) is smaller than one "
                f"{self.dtype_name} element ({element.size_bytes} B)"
            )
        # Fail on a bad feed at construction, not lazily inside `delta`.
        if isinstance(self.feed, str):
            if self.feed not in ("line", "balanced"):
                raise ValueError(
                    f"unknown feed policy {self.feed!r}; "
                    "expected 'line', 'balanced', or an explicit delta in cycles"
                )
        elif self.feed <= 0:
            raise ValueError("explicit delta must be positive")

    # ------------------------------------------------------------------
    # Derived symbols
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> DType:
        return get_dtype(self.dtype_name)

    @property
    def n_cores(self) -> int:
        """K — total HPUs."""
        return self.n_clusters * self.cores_per_cluster

    @property
    def elements_per_packet(self) -> int:
        """N — elements per packet."""
        return self.packet_bytes // self.dtype.size_bytes

    @property
    def total_elements(self) -> int:
        """Z — elements reduced per host."""
        return self.data_bytes // self.dtype.size_bytes

    @property
    def blocks(self) -> int:
        """Z/N — reduction blocks per allreduce (>= 1)."""
        return max(1, -(-self.total_elements // self.elements_per_packet))

    @property
    def aggregation_cycles(self) -> float:
        """L — cycles to aggregate one full packet into a buffer."""
        return self.cost_model.aggregation_cycles(self.packet_bytes, self.dtype)

    @property
    def line_rate_bytes_per_cycle(self) -> float:
        bits = self.n_ports * self.port_gbps * 1e9
        return bits / 8.0 / (self.cost_model.clock_ghz * 1e9)

    @property
    def delta(self) -> float:
        """delta — mean packet interarrival in cycles (see ``feed``)."""
        if isinstance(self.feed, (int, float)):
            if self.feed <= 0:
                raise ValueError("explicit delta must be positive")
            return float(self.feed)
        line = self.packet_bytes / self.line_rate_bytes_per_cycle
        if self.feed == "line":
            return line
        if self.feed == "balanced":
            return max(line, self.aggregation_cycles / self.n_cores)
        raise ValueError(f"unknown feed policy {self.feed!r}")

    @property
    def delta_c(self) -> float:
        """delta_c — mean intra-block interarrival (cycles).

        With staggered sending delta_c can be raised up to delta * Z/N
        (Sec. 5: "delta <= delta_c <= delta * Z/N"); without it, packets
        of a block arrive back-to-back from the P children (delta_c =
        delta).
        """
        if not self.staggered:
            return self.delta
        return self.delta * self.blocks
