"""SwitchML behavioral model (Sapio et al., NSDI'21).

Constraints the paper leans on (Secs. 2.3-2.4, 6.4):

* runs on Tofino RMT pipelines: **integer only** (no FPU), no
  multiply/divide;
* a packet traverses 10-20 match-action stages and can perform ~32
  operations, so only a fixed number of elements per packet are
  aggregated regardless of element width — sub-32-bit types do not
  raise the element rate;
* processing more elements per packet needs *recirculation*, dividing
  bandwidth accordingly ("to process the data sent by the hosts at
  100Gbps, existing allreduce implementations for programmable switches
  only allow 16 ports to be used on a 64-port switch");
* published peak: **1.6 Tbps**.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SwitchMLModel:
    """Envelope model of a SwitchML deployment on one switch."""

    peak_tbps: float = 1.6
    elements_per_packet: int = 32          # per pipeline pass
    element_bits: int = 32
    n_ports: int = 64
    usable_ports: int = 16                 # at 100 Gbps line rate
    supports_float: bool = False
    supports_sparse: bool = False
    reproducible: bool = True              # fixed pool slots, integer math

    def bandwidth_tbps(self, dtype_name: str, recirculations: int = 1) -> float:
        """Achievable aggregation bandwidth for a dtype.

        Unsupported dtypes return 0 (the paper plots SwitchML only for
        integers).  Recirculation divides bandwidth.
        """
        if recirculations < 1:
            raise ValueError("recirculations must be >= 1")
        if dtype_name in ("float32", "float16", "float64"):
            return 0.0
        return self.peak_tbps / recirculations

    def elements_per_second(self, dtype_name: str) -> float:
        """Aggregated elements/s — flat across integer widths.

        The pipeline processes a fixed element *count* per packet, so
        int16/int8 payloads do not increase throughput (Flare's SIMD
        advantage in Fig. 11 right).
        """
        if dtype_name in ("float32", "float16", "float64"):
            return 0.0
        # 32 elements per ~32-element-budget packet at peak: the packet
        # carries elements_per_packet 32-bit slots.
        packet_bits = self.elements_per_packet * self.element_bits
        packets_per_s = self.peak_tbps * 1e12 / packet_bits
        return packets_per_s * self.elements_per_packet
