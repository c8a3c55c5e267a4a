"""Planner acceptance bench: cost-mode auto vs fixed vs static auto.

Sweeps the acceptance grid — topology family x message size x tenant
count on 16 hosts — and measures, per point, the shared-fabric
makespan of

* every **fixed** priced dense algorithm (ring, swing, butterfly,
  flare_dense) at its default knobs — what a user gets by naming the
  algorithm explicitly,
* the **static** auto baseline: the highest-static-priority candidate
  the cost model prices (the pre-planner behavior restricted to the
  cost mode's candidates), default knobs,
* the **cost** auto planner: tenants created with
  ``auto_mode="cost"``, plain ``algorithm="auto"`` requests, live
  congestion telemetry folded in between issues.

``check(rows)`` encodes the acceptance gate (CI's planner-smoke job):
cost-auto within 5% of the best fixed algorithm on *every* point, and
strictly faster than the static baseline on at least three points.

Makespan is the fabric drain time: all tenants issue at t=0 and the
clock when the last future settles is the number a shared cluster
cares about.
"""

from __future__ import annotations

from repro.comm.fabric import Fabric
from repro.comm.future import wait_all
from repro.comm.planner import FEATURES
from repro.comm.planner.calibrate import topology_params
from repro.comm.registry import match_algorithms
from repro.comm.request import CollectiveRequest

GRID_FAMILIES = ("fat-tree", "dragonfly", "torus")
GRID_SIZES = ("64KiB", "1MiB", "16MiB")
GRID_TENANTS = (1, 8)
GRID_HOSTS = 16
FIXED_ALGORITHMS = ("ring", "swing", "butterfly", "flare_dense")

#: cost-auto may be at most this much slower than the best fixed
#: algorithm on any grid point.
SLACK = 1.05
#: ... and must strictly beat the static baseline on at least this
#: many points.
MIN_WINS = 3


def _fabric(family: str, n_hosts: int) -> Fabric:
    return Fabric(
        topology=family,
        topology_params=topology_params(family, n_hosts),
        n_hosts=n_hosts,
    )


def static_issuable_pick(family: str, n_hosts: int, size) -> str:
    """The static auto baseline: highest-priority candidate among the
    algorithms the cost model prices (the switch-level backends are
    excluded: the model has no price for their PsPIN-priced trees)."""
    request = CollectiveRequest(
        nbytes=size,
        n_hosts=n_hosts,
        params={
            "topology": family,
            "topology_params": topology_params(family, n_hosts),
        },
    )
    for entry in match_algorithms(request):
        if entry.name in FEATURES:
            return entry.name
    raise RuntimeError(f"no issuable algorithm for {family}/{size}")


def measure_fixed(
    family: str, n_hosts: int, size, tenants: int, algorithm: str
) -> float:
    """Fabric makespan (ns) of ``tenants`` concurrent collectives all
    running ``algorithm`` at default knobs."""
    fabric = _fabric(family, n_hosts)
    comms = [fabric.communicator(name=f"t{i}") for i in range(tenants)]
    futures = [c.iallreduce(size, algorithm=algorithm) for c in comms]
    wait_all(futures)
    return fabric.now


def measure_cost_auto(
    family: str, n_hosts: int, size, tenants: int
) -> tuple[float, list[str]]:
    """Fabric makespan of ``tenants`` cost-mode auto collectives, plus
    the algorithms the planner picked (issue order)."""
    fabric = _fabric(family, n_hosts)
    comms = [
        fabric.communicator(name=f"t{i}", auto_mode="cost")
        for i in range(tenants)
    ]
    futures = [c.iallreduce(size, algorithm="auto") for c in comms]
    wait_all(futures)
    picks = [e["algorithm"] for e in fabric.timeline()]
    return fabric.now, picks


def run_point(family: str, size, tenants: int, n_hosts: int = GRID_HOSTS) -> dict:
    """Measure one grid point; returns a comparable row."""
    fixed = {
        alg: measure_fixed(family, n_hosts, size, tenants, alg)
        for alg in FIXED_ALGORITHMS
    }
    static_alg = static_issuable_pick(family, n_hosts, size)
    static_ns = fixed.get(static_alg)
    if static_ns is None:
        static_ns = measure_fixed(family, n_hosts, size, tenants, static_alg)
    cost_ns, picks = measure_cost_auto(family, n_hosts, size, tenants)
    best_alg = min(fixed, key=fixed.get)
    return {
        "family": family,
        "size": str(size),
        "tenants": tenants,
        "n_hosts": n_hosts,
        "fixed_ns": fixed,
        "best_fixed": best_alg,
        "best_fixed_ns": fixed[best_alg],
        "static_algorithm": static_alg,
        "static_ns": static_ns,
        "cost_ns": cost_ns,
        "cost_picks": picks,
    }


def run_grid(
    *,
    families=GRID_FAMILIES,
    sizes=GRID_SIZES,
    tenants=GRID_TENANTS,
    n_hosts: int = GRID_HOSTS,
    log=None,
) -> list[dict]:
    say = log or (lambda *_: None)
    rows = []
    for family in families:
        for size in sizes:
            for n_tenants in tenants:
                row = run_point(family, size, n_tenants, n_hosts)
                rows.append(row)
                say(
                    f"{family:>9s} {row['size']:>6s} x{n_tenants}: "
                    f"cost={row['cost_ns']:>12.0f} "
                    f"(picks {'/'.join(sorted(set(row['cost_picks'])))}) "
                    f"best_fixed={row['best_fixed']}"
                    f"={row['best_fixed_ns']:>12.0f} "
                    f"static={row['static_algorithm']}"
                    f"={row['static_ns']:>12.0f}"
                )
    return rows


def check(rows: list[dict], *, slack: float = SLACK, min_wins: int = MIN_WINS):
    """The acceptance gate.  Returns (ok, problems, wins)."""
    problems = []
    wins = 0
    for row in rows:
        tag = f"{row['family']}/{row['size']}/x{row['tenants']}"
        if row["cost_ns"] > slack * row["best_fixed_ns"]:
            problems.append(
                f"{tag}: cost-auto {row['cost_ns']:.0f} ns is "
                f"{row['cost_ns'] / row['best_fixed_ns']:.2f}x the best "
                f"fixed ({row['best_fixed']} "
                f"{row['best_fixed_ns']:.0f} ns) — over the {slack:.2f}x "
                f"slack"
            )
        if row["cost_ns"] < row["static_ns"]:
            wins += 1
    if wins < min_wins:
        problems.append(
            f"cost-auto beat the static baseline on only {wins} grid "
            f"points (need >= {min_wins})"
        )
    return (not problems), problems, wins
