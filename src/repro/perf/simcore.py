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

Speedups (``vs_des_path`` / ``vs_fastpath_off`` / the shard sweep's
``vs_sequential``) are measured live, in-process, on the current machine:
hardware-independent ratios, which CI regression-gates against the
committed rolling baseline ``benchmarks/baselines/bench_simcore_baseline.json``.

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

#: Sharded-engine scaling sweep: a cross-rack transport storm on a fat
#: tree, sequential engine vs the window-synchronized PDES at increasing
#: worker counts.  Both run FIFO windows through the same numpy kernel
#: (``repro.network.windows``), so ``workers=1`` is pure sharding
#: overhead, not a fast path.  Send times are staggered on a
#: 3 ns grid so FIFO service order is tie-free and the runs are
#: bitwise-comparable.
SHARD_WORKER_COUNTS = (1, 2, 4, 8)
SHARD_STORM = {
    "n_hosts": 8192, "hosts_per_leaf": 32, "n_spines": 16,
    "msgs_per_host": 8,
}
#: Small storm used for the in-bench parity assertion (full arrival
#: log compared host-by-host, outside the timed region).
SHARD_PARITY = {
    "n_hosts": 512, "hosts_per_leaf": 16, "n_spines": 8,
    "msgs_per_host": 4,
}
#: Scale demonstrator (full mode): a 100k-host fabric, one cross-pod
#: message per host.
SHARD_SCALE = {
    "n_hosts": 102400, "hosts_per_leaf": 64, "n_spines": 32,
    "msgs_per_host": 1,
}


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
# Sharded-engine scaling sweep
# ----------------------------------------------------------------------
def _shard_storm(workers: int, cfg: dict, collect: bool = False) -> dict:
    """One transport storm run; ``collect`` gathers the full arrival
    log for parity checking (never inside a timed measurement)."""
    from repro.network import FatTreeTopology, Message
    from repro.pspin.pdes import build_engine

    topo = FatTreeTopology(
        n_hosts=cfg["n_hosts"], hosts_per_leaf=cfg["hosts_per_leaf"],
        n_spines=cfg["n_spines"],
    )
    sim, net = build_engine(
        topo, workers=workers, router="updown", arbitration="fifo",
        coordinator_hosts=False,
    )
    arrivals: list = []
    if collect:
        for h in topo.hosts:
            net.on_deliver(
                h, lambda m, t, h=h: arrivals.append((h, m.src, m.nbytes, t))
            )
    else:
        sink = lambda m, t: None  # noqa: E731
        for h in topo.hosts:
            net.on_deliver(h, sink)
    hosts = topo.hosts
    n = len(hosts)
    k = 0
    for i, src in enumerate(hosts):
        for off in range(1, cfg["msgs_per_host"] + 1):
            net.send(
                Message(src, hosts[(i + off * 37) % n], 4096.0),
                at=3.0 * (k % 97),
            )
            k += 1
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "events": sim.events_processed,
        "windowed_hops": net.windowed_hops,
        "makespan_ns": sim.now,
    }
    if collect:
        out["arrivals"] = sorted(arrivals)
        out["per_link"] = dict(net.traffic.per_link)
    if hasattr(net, "shutdown"):
        net.shutdown()
    return out


def _run_shard_sweep(reps: int, worker_counts) -> dict:
    parity_ref = _shard_storm(0, SHARD_PARITY, collect=True)
    parity = []
    for w in worker_counts:
        run = _shard_storm(w, SHARD_PARITY, collect=True)
        ok = (
            run["arrivals"] == parity_ref["arrivals"]
            and run["per_link"] == parity_ref["per_link"]
            and run["makespan_ns"] == parity_ref["makespan_ns"]
        )
        parity.append({"workers": w, "bitwise_identical": ok})
        if not ok:
            raise RuntimeError(
                f"PDES parity violation at workers={w}: sharded storm "
                "diverged from the sequential engine"
            )

    base_wall = _best_of(lambda: _shard_storm(0, SHARD_STORM), reps)
    base = _shard_storm(0, SHARD_STORM)
    points = []
    for w in worker_counts:
        wall = _best_of(lambda: _shard_storm(w, SHARD_STORM), reps)
        run = _shard_storm(w, SHARD_STORM)
        if (run["events"], run["makespan_ns"]) != (
            base["events"], base["makespan_ns"]
        ):
            raise RuntimeError(
                f"PDES parity violation at workers={w}: event count or "
                "makespan diverged from the sequential engine"
            )
        speedup = base_wall / wall
        points.append({
            "workers": w,
            "wall_s": wall,
            "events_per_s": run["events"] / wall,
            "speedup_vs_sequential": speedup,
            "parallel_efficiency": speedup / w,
        })
    report = {
        "storm": dict(SHARD_STORM),
        "cpu_count": os.cpu_count(),
        "note": (
            "single-box measurement; both engines run FIFO windows as "
            "numpy batches (the sequential one in-process, with the same "
            "kernel), so a ratio above 1 can only come from parallel shards"
        ),
        "sequential": {
            "wall_s": base_wall,
            "events": base["events"],
            "events_per_s": base["events"] / base_wall,
            "makespan_ns": base["makespan_ns"],
            "windowed_hops": base["windowed_hops"],
        },
        "points": points,
        "parity": {"storm": dict(SHARD_PARITY), "checks": parity},
    }
    scale_workers = min(4, max(worker_counts))
    scale = _shard_storm(scale_workers, SHARD_SCALE)
    report["scale_100k"] = {
        "storm": dict(SHARD_SCALE),
        "workers": scale_workers,
        "wall_s": scale["wall_s"],
        "events": scale["events"],
        "events_per_s": scale["events"] / scale["wall_s"],
        "makespan_ns": scale["makespan_ns"],
    }
    return report


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_simcore_bench(
    reps: int = 3,
    full: Optional[bool] = None,
    worker_counts=SHARD_WORKER_COUNTS,
) -> dict:
    """Run all scenarios; returns the JSON-serializable report."""
    if full is None:
        full = bench_full_mode()
    from repro.provenance.identity import run_identity

    report = {
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
            engine={
                "mode": "full" if full else "fast",
                "reps": reps,
                "workers": list(worker_counts or ()),
            },
        ),
        "dense_sweep": _run_dense_sweep(reps, full),
        "overlap": _run_overlap(reps),
    }
    if worker_counts:
        report["shard_sweep"] = _run_shard_sweep(reps, tuple(worker_counts))
    return report


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
    # Sharded-engine speedup ratios (measured vs the sequential engine
    # on the same box, so hardware-stable), per matching worker count.
    now_shard = report.get("shard_sweep")
    ref_shard = base.get("shard_sweep")
    if now_shard and ref_shard:
        ref_by_w = {
            p["workers"]: p["speedup_vs_sequential"]
            for p in ref_shard["points"]
        }
        for p in now_shard["points"]:
            ref = ref_by_w.get(p["workers"])
            if ref is not None:
                gate(
                    f"shard_sweep.speedup@{p['workers']}w",
                    p["speedup_vs_sequential"], ref,
                )
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
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="cap the sharded-engine sweep at N workers "
                        "(default: the full 1/2/4/8 sweep; 0 skips it)")
    args = parser.parse_args(argv)

    if args.workers is None:
        worker_counts = SHARD_WORKER_COUNTS
    else:
        worker_counts = tuple(
            w for w in SHARD_WORKER_COUNTS if w <= args.workers
        )
    report = run_simcore_bench(
        reps=args.reps,
        full=True if args.full else None,
        worker_counts=worker_counts,
    )
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
    shard = report.get("shard_sweep")
    if shard:
        seq = shard["sequential"]
        print(f"[simcore] shard sweep (sequential {seq['events_per_s'] / 1e3:.0f}k "
              f"ev/s, {seq['windowed_hops'] / seq['events']:.0%} of hops "
              "in FIFO windows):")
        for p in shard["points"]:
            print(f"[simcore]   {p['workers']}w: "
                  f"{p['events_per_s'] / 1e3:.0f}k ev/s "
                  f"=> {p['speedup_vs_sequential']:.2f}x "
                  f"(efficiency {p['parallel_efficiency']:.2f})")
        scale = shard.get("scale_100k")
        if scale:
            print(f"[simcore] 100k-host scale run: {scale['events']} events "
                  f"in {scale['wall_s']:.1f} s "
                  f"({scale['events_per_s'] / 1e3:.0f}k ev/s)")
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
