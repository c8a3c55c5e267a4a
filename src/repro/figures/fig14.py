"""Figure 14: simulated sparse allreduce — bandwidth, per-block memory,
and extra traffic vs data density (20% / 10% / 1%), hash vs array.

Paper shapes: hash bandwidth and memory are flat across densities;
array is faster and spill-free but its block memory grows as 1/density
until it no longer fits Flare's working-memory partition (no array bars
at 1%); hash spilling costs extra traffic, worst at 20% density where
it roughly doubles the switch's output ("spilling doubles the network
traffic").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm import Communicator
from repro.core.allreduce import SwitchAllreduceResult, SwitchInfeasibleError
from repro.utils.tables import ascii_table

DENSITIES = (0.20, 0.10, 0.01)


@dataclass
class Fig14Result:
    densities: list[float] = field(default_factory=list)
    #: storage -> one entry per density: the run's result, or the
    #: error of a run that does not fit the switch's memory.
    results: dict = field(default_factory=dict)


def run(fast: bool = False, seed: int = 0, correlation: float = 0.0) -> Fig14Result:
    """Run the density sweep.

    ``correlation`` biases hosts toward shared non-zero positions
    (top-k-gradient-like); 0 is the uniform worst case.  The allreduce
    size follows the paper's 1 MiB experiment, scaled down in fast mode.
    """
    # Paper uses 1 MiB; 256 KiB keeps the open-loop in-flight block
    # count inside the working-memory partition at 64 children while
    # preserving every density shape (bandwidths are size-flat).
    size = "64KiB" if fast else "256KiB"
    children = 16 if fast else 64
    n_clusters = 2 if fast else 4
    out = Fig14Result(densities=list(DENSITIES))
    comm = Communicator(n_hosts=children, n_clusters=n_clusters)
    for storage in ("hash", "array"):
        rs: list[SwitchAllreduceResult | SwitchInfeasibleError] = []
        for density in DENSITIES:
            try:
                rs.append(comm.allreduce(
                    size,
                    algorithm="flare_switch_sparse",
                    sparse=True,
                    density=density,
                    storage=storage,
                    correlation=correlation,
                    seed=seed,
                ).raw)
            except SwitchInfeasibleError as exc:
                rs.append(exc)
        out.results[storage] = rs
    return out


def render(result: Fig14Result) -> str:
    rows = []
    for storage, rs in result.results.items():
        for density, r in zip(result.densities, rs):
            if isinstance(r, SwitchAllreduceResult):
                rows.append([
                    storage, f"{density:.0%}",
                    round(r.bandwidth_tbps, 2),
                    round(r.block_memory_bytes / 1024, 1),
                    round(r.extra_traffic_pct, 0),
                ])
            else:
                rows.append([
                    storage, f"{density:.0%}", "-",
                    round(r.block_memory_bytes / 1024, 1),
                    "- (does not fit memory)",
                ])
    return ascii_table(
        ["storage", "density", "band (Tbps)", "block mem (KiB)", "extra traffic (%)"],
        rows,
        title="Figure 14: simulated sparse allreduce vs density",
    )


if __name__ == "__main__":
    print(render(run()))
