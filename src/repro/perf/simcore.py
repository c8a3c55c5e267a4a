"""Simulation-core benchmark harness (the tracked perf trajectory).

Measures the two workloads the ROADMAP's throughput goal hinges on and
emits machine-readable JSON (``BENCH_simcore.json``) so speedups claimed
today remain verifiable tomorrow:

* **Fig. 11 dense sweep** — switch-level allreduces (single / multi(4) /
  tree aggregation) at paper scale (64 children, 4 simulated clusters),
  each point run through BOTH tiers of the simulation core: the
  packet-train fast path and the per-packet discrete-event path
  (``fast_path=False``).  Payloads are pre-generated and golden
  verification is disabled inside the timed region, so the numbers are
  simulator throughput (packets/second), not workload synthesis.
* **Two-tenant overlap** — two weighted tenants contending on one
  shared fabric (ring + flare_dense schedules with fine chunking),
  measured with the structural network fast paths on (default) and off
  (``REPRO_FASTPATH=0``: no route memoization, no burst sends, no
  uncontended-WFQ bypass).

Speedups (``vs_des_path`` / ``vs_fastpath_off``) are measured live,
in-process, on the current machine: hardware-independent ratios, which
CI regression-gates against the committed rolling baseline
``benchmarks/baselines/bench_simcore_baseline.json``.

``REPRO_BENCH_FULL=1`` extends the sweep with the small and the
back-pressured sizes (1 KiB … 512 KiB; at ≥256 KiB the L2 input buffers
fill, the fast path disengages by design, and both tiers take the
per-packet path).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Optional

DENSE_CHILDREN = 64
DENSE_CLUSTERS = 4
DENSE_DTYPE = "int32"
DENSE_ALGOS = ("single", "multi(4)", "tree")
DENSE_SIZES_FAST = ("16KiB", "64KiB", "128KiB")
DENSE_SIZES_FULL = ("1KiB", "4KiB", "16KiB", "64KiB", "128KiB", "512KiB")

OVERLAP_HOSTS = 16
OVERLAP_BYTES = 8 * 1024 * 1024
OVERLAP_SCENARIOS = (
    ("ring", {"sub_chunk_bytes": 8 * 1024.0}),
    ("flare_dense", {"chunk_bytes": 8 * 1024.0}),
)
OVERLAP_WEIGHTS = (4.0, 1.0)


def bench_full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false", "no")


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Dense sweep
# ----------------------------------------------------------------------
def _dense_point(algo: str, size: str, reps: int) -> dict:
    from repro.core.allreduce import make_dense_blocks, plan_switch_allreduce

    plan = plan_switch_allreduce(
        size,
        children=DENSE_CHILDREN,
        algorithm=algo,
        dtype=DENSE_DTYPE,
        n_clusters=DENSE_CLUSTERS,
    )
    data = make_dense_blocks(
        DENSE_CHILDREN, plan.n_blocks, plan.elements_per_packet,
        dtype=DENSE_DTYPE, seed=0,
    )
    packets = plan.n_blocks * DENSE_CHILDREN
    results = {}
    tiers = {}
    for label, fast in (("fast", True), ("des", False)):
        plan.switch_cfg.fast_path = fast
        wall = _best_of(
            lambda: plan.execute(data=data, verify=False, seed=0), reps
        )
        res = plan.execute(data=data, verify=False, seed=0)
        results[label] = res
        tiers[label] = {
            "wall_s": wall,
            "packets_per_s": packets / wall,
            "fast_path_used": res.fast_path_used,
        }
    if results["fast"].makespan_cycles != results["des"].makespan_cycles:
        raise RuntimeError(
            f"parity violation at {algo}/{size}: fast makespan "
            f"{results['fast'].makespan_cycles} != DES "
            f"{results['des'].makespan_cycles}"
        )
    return {
        "algorithm": algo,
        "size": size,
        "packets": packets,
        "makespan_cycles": results["fast"].makespan_cycles,
        "deferred_arrivals": results["des"].deferred_arrivals,
        **tiers,
        "speedup_vs_des_path": tiers["des"]["wall_s"] / tiers["fast"]["wall_s"],
    }


def _run_dense_sweep(reps: int, full: bool) -> dict:
    sizes = DENSE_SIZES_FULL if full else DENSE_SIZES_FAST
    points = []
    for algo in DENSE_ALGOS:
        for size in sizes:
            points.append(_dense_point(algo, size, reps))
    fast_total = sum(p["fast"]["wall_s"] for p in points)
    des_total = sum(p["des"]["wall_s"] for p in points)
    packets_total = sum(p["packets"] for p in points)
    return {
        "children": DENSE_CHILDREN,
        "sim_clusters": DENSE_CLUSTERS,
        "dtype": DENSE_DTYPE,
        "sizes": list(sizes),
        "points": points,
        "fast_wall_s": fast_total,
        "des_wall_s": des_total,
        "fast_packets_per_s": packets_total / fast_total,
        "des_packets_per_s": packets_total / des_total,
        "speedup_vs_des_path": des_total / fast_total,
    }


# ----------------------------------------------------------------------
# Two-tenant overlap
# ----------------------------------------------------------------------
def _overlap_once(algo: str, params: dict) -> int:
    from repro.comm import wait_all
    from repro.comm.fabric import Fabric

    fabric = Fabric(n_hosts=OVERLAP_HOSTS)
    comms = [
        fabric.communicator(name=f"tenant{i}", weight=w)
        for i, w in enumerate(OVERLAP_WEIGHTS)
    ]
    futures = [
        c.iallreduce(OVERLAP_BYTES, algorithm=algo, **params) for c in comms
    ]
    wait_all(futures)
    fabric.run()
    return fabric.sim.events_processed


def _run_overlap(reps: int) -> dict:
    scenarios = []
    for mode_label, env_value in (("fast", None), ("off", "0")):
        saved = os.environ.get("REPRO_FASTPATH")
        if env_value is None:
            os.environ.pop("REPRO_FASTPATH", None)
        else:
            os.environ["REPRO_FASTPATH"] = env_value
        try:
            for algo, params in OVERLAP_SCENARIOS:
                events = _overlap_once(algo, params)   # warm-up + count
                wall = _best_of(lambda: _overlap_once(algo, params), reps)
                scenarios.append(
                    {
                        "algorithm": algo,
                        "mode": mode_label,
                        "params": {k: float(v) for k, v in params.items()},
                        "wall_s": wall,
                        "events": events,
                        "events_per_s": events / wall,
                    }
                )
        finally:
            if saved is None:
                os.environ.pop("REPRO_FASTPATH", None)
            else:
                os.environ["REPRO_FASTPATH"] = saved
    fast_total = sum(s["wall_s"] for s in scenarios if s["mode"] == "fast")
    off_total = sum(s["wall_s"] for s in scenarios if s["mode"] == "off")
    return {
        "tenants": len(OVERLAP_WEIGHTS),
        "weights": list(OVERLAP_WEIGHTS),
        "hosts": OVERLAP_HOSTS,
        "bytes": OVERLAP_BYTES,
        "scenarios": scenarios,
        "fast_wall_s": fast_total,
        "fastpath_off_wall_s": off_total,
        "speedup_vs_fastpath_off": off_total / fast_total,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_simcore_bench(reps: int = 3, full: Optional[bool] = None) -> dict:
    """Run all scenarios; returns the JSON-serializable report."""
    if full is None:
        full = bench_full_mode()
    from repro.provenance.identity import run_identity

    return {
        "benchmark": "simcore",
        "version": 2,
        "mode": "full" if full else "fast",
        "reps": reps,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # Run identity: git SHA + dirty flag, seed-free engine config —
        # makes every BENCH_simcore.json attributable to its tree.
        "identity": run_identity(
            engine={"mode": "full" if full else "fast", "reps": reps},
        ),
        "dense_sweep": _run_dense_sweep(reps, full),
        "overlap": _run_overlap(reps),
    }


def check_regression(
    report: dict, baseline_path: str, tolerance: float = 0.30
) -> list[str]:
    """Compare throughput against a checked-in baseline report.

    Returns a list of failure strings (empty = pass).  Gated metrics are
    ratios and rates measured in-process, so they transfer across
    hardware far better than absolute wall clock:

    * the dense sweep's fast-vs-DES speedup must not regress by more
      than ``tolerance`` (the fast path losing its edge);
    * the overlap's fast-vs-off speedup likewise;
    * absolute packets/s may drift with runner hardware but still must
      stay within ``tolerance`` of the baseline *relative to the DES
      path* (both tiers run on the same box, so the ratio is stable).
    """
    with open(baseline_path) as fh:
        base = json.load(fh)
    failures: list[str] = []

    def gate(label: str, now: float, ref: float) -> None:
        if now < ref * (1.0 - tolerance):
            failures.append(
                f"{label}: {now:.3f} is >{tolerance:.0%} below baseline {ref:.3f}"
            )

    gate(
        "dense_sweep.speedup_vs_des_path",
        report["dense_sweep"]["speedup_vs_des_path"],
        base["dense_sweep"]["speedup_vs_des_path"],
    )
    gate(
        "overlap.speedup_vs_fastpath_off",
        report["overlap"]["speedup_vs_fastpath_off"],
        base["overlap"]["speedup_vs_fastpath_off"],
    )
    now_rel = (
        report["dense_sweep"]["fast_packets_per_s"]
        / report["dense_sweep"]["des_packets_per_s"]
    )
    ref_rel = (
        base["dense_sweep"]["fast_packets_per_s"]
        / base["dense_sweep"]["des_packets_per_s"]
    )
    gate("dense_sweep.relative_packets_per_s", now_rel, ref_rel)
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Simulation-core perf harness (see module docstring)."
    )
    parser.add_argument("--out", default="BENCH_simcore.json",
                        help="output JSON path (default BENCH_simcore.json)")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per measurement")
    parser.add_argument("--full", action="store_true",
                        help="full sweep (or REPRO_BENCH_FULL=1)")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="fail (exit 1) on >tolerance regression vs a "
                        "checked-in baseline report")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)

    report = run_simcore_bench(reps=args.reps, full=True if args.full else None)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    dense = report["dense_sweep"]
    overlap = report["overlap"]
    print(f"[simcore] dense sweep: {dense['fast_packets_per_s'] / 1e3:.0f}k pkt/s "
          f"fast vs {dense['des_packets_per_s'] / 1e3:.0f}k pkt/s DES "
          f"=> {dense['speedup_vs_des_path']:.2f}x")
    print(f"[simcore] two-tenant overlap: {overlap['fast_wall_s'] * 1e3:.0f} ms "
          f"fast vs {overlap['fastpath_off_wall_s'] * 1e3:.0f} ms off "
          f"=> {overlap['speedup_vs_fastpath_off']:.2f}x")
    print(f"[simcore] report written to {args.out}")
    if args.check_against:
        failures = check_regression(report, args.check_against, args.tolerance)
        if failures:
            for f in failures:
                print(f"[simcore] REGRESSION {f}", file=sys.stderr)
            return 1
        print(f"[simcore] no regression vs {args.check_against} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
