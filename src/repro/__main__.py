"""Command-line entry point: paper experiments and the algorithm bench.

Usage::

    python -m repro list                   # available experiments
    python -m repro algorithms             # registered allreduce algorithms
    python -m repro topologies             # built-in topology families
    python -m repro fig11                  # run one figure (paper scale)
    python -m repro fig15 --fast           # reduced-scale smoke run
    python -m repro all --fast             # everything
    python -m repro bench ring --size 1MiB --hosts 16 --repeat 3
    python -m repro bench ring --topology dragonfly --routing adaptive
    python -m repro bench flare_dense --topology torus \
        --topo-params dim_x=4,dim_y=4,hosts_per_switch=2
    python -m repro bench ring --tenants 2 --overlap --weights 4,1 \
        --timeline-out timeline.json
    python -m repro bench ring --faults examples/faults/chaos.json \
        --fault-seed 1 --timeline-out chaos-timeline.json

``bench`` drives any registered algorithm through the unified
:class:`repro.comm.Communicator`, re-executing the cached plan to show
the plan/execute split at work; ``--topology``/``--routing`` swap the
wiring and the path-selection policy under any network-simulated
algorithm.  With ``--tenants N`` the run becomes multi-tenant: N
communicators share one :class:`repro.comm.Fabric` (``--overlap``
issues their collectives concurrently into its single event loop, with
QoS ``--weights`` arbitrating the shared links) and the per-tenant
trace can be exported with ``--timeline-out``.  (Also installed as the
``flare-repro`` console script.)
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

EXPERIMENTS = ("table1", "fig7", "fig10", "fig11", "fig13", "fig14", "fig15")


class _Routers:
    """The ``--routing`` choices: every registered routing policy, read
    only when a value is checked (the option shows a ``metavar``), so
    building the parser loads no simulator."""

    def __iter__(self):
        from repro.network.routing import available_routers

        return iter(available_routers())

    def __contains__(self, name) -> bool:
        return name in tuple(self)


def _run_one(name: str, fast: bool) -> None:
    mod = importlib.import_module(f"repro.figures.{name}")
    t0 = time.perf_counter()
    result = mod.run(fast=fast)
    elapsed = time.perf_counter() - t0
    print(mod.render(result))
    print(f"[{name} completed in {elapsed:.1f}s]")


def _cmd_list() -> int:
    for name in EXPERIMENTS:
        mod = importlib.import_module(f"repro.figures.{name}")
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"{name:8s} {doc}")
    return 0


def _cmd_algorithms() -> int:
    from repro.comm import Communicator
    from repro.utils.tables import ascii_table

    rows = []
    for a in Communicator.algorithms():
        rows.append([
            a["name"],
            "x" if a["dense"] else "",
            "x" if a["sparse"] else "",
            "in-network" if a["in_network"] else "host",
            "x" if a["reproducible"] else "",
            ",".join(a["ops"]) + ("+custom" if a["custom_ops"] else ""),
            a["priority"],
            ",".join(f"{k}={v}" for k, v in a["knobs"].items()),
        ])
    print(ascii_table(
        ["algorithm", "dense", "sparse", "where", "repro", "ops", "prio", "knobs"],
        rows,
        title="Registered allreduce algorithms (priority drives 'auto'; "
        "knobs are name=default)",
    ))
    return 0


def _cmd_topologies() -> int:
    from repro.comm import Communicator
    from repro.network import available_routers, available_topologies, build_topology
    from repro.utils.tables import ascii_table

    rows = []
    for family in available_topologies():
        topo = build_topology(family)
        params = ", ".join(
            f"{k}={v}" for k, v in topo.describe().items()
            if k not in ("link_gbps", "link_latency_ns")
        )
        algos = [
            a["name"]
            for a in Communicator.algorithms()
            if "*" in a["topologies"] or family in a["topologies"]
        ]
        rows.append([family, params, len(topo.hosts), len(topo.switches),
                     ",".join(algos)])
    print(ascii_table(
        ["family", "default parameters", "hosts", "switches", "algorithms"],
        rows,
        title="Built-in topology families (bench --topology <family> "
        "--topo-params k=v,...)",
    ))
    print(f"routing policies: {', '.join(available_routers())} "
          "(bench --routing <policy>)")
    return 0


def _parse_topo_params(text: str) -> dict:
    """Parse "k=v,k=v" with ints, floats, bools, and AxB tuples."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"--topo-params entries are k=v, got {item!r}")
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        elif "x" in raw and all(p.isdigit() for p in raw.split("x")):
            value = tuple(int(p) for p in raw.split("x"))
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        out[key.strip()] = value
    return out


def _reliability_kwargs(args: argparse.Namespace) -> dict:
    """Fabric kwargs for the host reliability knobs (``--ack-timeout``
    maps to the end-to-end retransmission timer).  Only explicitly set
    flags appear, so Fabric's own defaults stay authoritative."""
    from repro.utils.units import parse_time_ns

    out: dict = {}
    if args.max_retransmits is not None:
        out["max_retransmits"] = args.max_retransmits
    if args.ack_timeout is not None:
        out["retransmit_timeout_ns"] = parse_time_ns(args.ack_timeout)
    return out


def _request_kwargs(args: argparse.Namespace) -> dict:
    """The bench's collective: everything but its size and run knobs."""
    return dict(op=args.op, algorithm=args.algorithm, sparse=args.sparse,
                density=args.density, reproducible=args.reproducible)


def _cmd_multi_tenant_bench(args: argparse.Namespace, topology) -> int:
    """N communicators on one shared fabric, overlapped or sequential."""
    from repro.comm import CommError, Fabric, wait_all

    weights = [1.0] * args.tenants
    if args.weights:
        try:
            parts = [float(w) for w in args.weights.split(",")]
        except ValueError:
            print(
                f"error: --weights must be comma-separated numbers, got "
                f"{args.weights!r}", file=sys.stderr,
            )
            return 2
        if len(parts) != args.tenants:
            print(
                f"error: --weights lists {len(parts)} values for "
                f"--tenants {args.tenants}", file=sys.stderr,
            )
            return 2
        weights = parts
    try:
        fabric = Fabric(
            topology=topology,
            n_hosts=args.hosts,
            routing=args.routing,
            routing_seed=args.seed,
            provenance_db=args.provenance_db,
            run_label=f"bench/{args.algorithm}/{args.size}",
            **_reliability_kwargs(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.provenance_db:
        print(f"[provenance: run {fabric.run_id} -> {args.provenance_db}]")
    if args.faults:
        try:
            schedule = fabric.load_faults(args.faults, seed=args.fault_seed)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: cannot load fault schedule: {exc}", file=sys.stderr)
            return 2
        print(f"[chaos armed: {len(schedule)} fault(s) from {args.faults}, "
              f"seed {schedule.seed}]")
    comms = [
        fabric.communicator(name=f"tenant{i}", weight=weights[i],
                            n_clusters=args.clusters,
                            auto_mode=args.auto_mode)
        for i in range(args.tenants)
    ]
    kwargs = _request_kwargs(args)
    try:
        comms[0].make_request(args.size, **kwargs)   # a bad size fails here
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mode = "overlapped" if args.overlap else "sequential"
    print(
        f"{args.tenants} tenants ({mode}) x {args.repeat} round(s) of "
        f"{args.algorithm} {args.size} on a shared "
        f"{fabric.topology.family} fabric "
        f"[weights {','.join(str(w) for w in weights)}]"
    )
    try:
        for rnd in range(args.repeat):
            if args.overlap:
                futures = [
                    c.iallreduce(args.size, seed=args.seed + rnd, **kwargs)
                    for c in comms
                ]
                results = wait_all(futures)
            else:
                results = [
                    c.allreduce(args.size, seed=args.seed + rnd, **kwargs)
                    for c in comms
                ]
            fabric.run()          # drain deferred resource releases
            for c, r in zip(comms, results):
                note = " [fell back]" if r.extra.get("fell_back") else ""
                print(f"  round {rnd + 1} {c.name} (w={c.weight:g}): "
                      f"{r.summary()}{note}")
    except CommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = fabric.tenant_stats()
    print("\nper-tenant totals:")
    for name, s in stats.items():
        print(f"  {name}: {s['completed']}/{s['collectives']} done, "
              f"{s['bytes'] / 2**20:.1f} MiB reduced, "
              f"{s['wire_bytes'] / 2**30:.2f} GiB on wire, "
              f"{s['busy_ns'] / 1e6:.2f} ms busy, "
              f"{s['fell_back']} fell back, {s['recovered']} recovered")
    if fabric.faults is not None:
        traffic = fabric.net.traffic
        print(f"chaos totals: {traffic.drops} drops, "
              f"{traffic.duplicates} duplicates, "
              f"{traffic.retransmits} retransmits, "
              f"{len(fabric.fault_log())} fault event(s) applied")
        for event in fabric.fault_log():
            target = event.get("switch") or event.get("link")
            print(f"  t={event['at_ns']:.0f}ns {event['event']} "
                  f"{event['kind']} {target}")
    if args.timeline_out:
        fabric.timeline_json(path=args.timeline_out)
        print(f"[timeline written to {args.timeline_out}]")
    if args.perf_json:
        import json

        from repro.provenance.identity import run_identity

        payload = {
            "benchmark": "bench",
            "algorithm": args.algorithm,
            "size": args.size,
            "hosts": args.hosts,
            "tenants": args.tenants,
            # Shares the fabric's run id, so this report joins against
            # the provenance database (when one was recorded).
            "identity": run_identity(
                seed=args.seed,
                engine={"algorithm": args.algorithm, "hosts": args.hosts,
                        "tenants": args.tenants, "repeat": args.repeat,
                        "routing": args.routing},
                run_id=fabric.run_id,
            ),
            "provenance_db": args.provenance_db,
            "tenant_stats": stats,
        }
        with open(args.perf_json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[perf JSON written to {args.perf_json}]")
    fabric.shutdown()       # flushes provenance (no-op otherwise)
    return 0


def _build_cli_topology(args: argparse.Namespace):
    """Build the ``--topology``/``--topo-params`` wiring (None keeps the
    default fat tree).  Raises ``ValueError``/``TypeError`` on bad
    parameters; syncs ``args.hosts`` to the topology's actual count."""
    if args.topology is None:
        return None
    from repro.comm import Wiring

    topology = Wiring(
        {"topology": args.topology,
         "topology_params": _parse_topo_params(args.topo_params or "")},
        args.hosts,
    ).build()
    if topology.n_hosts != args.hosts:
        print(f"[topology {args.topology} wires {topology.n_hosts} hosts; "
              f"using that instead of --hosts {args.hosts}]")
        args.hosts = topology.n_hosts
    return topology


def _parse_class_spec(text: str):
    """Parse one ``--class name=prod,weight=4,rate=2000,size=1MiB,...``."""
    from repro.service import TenantClass
    from repro.utils.units import parse_size, parse_time_ns

    fields = _parse_topo_params(text)
    name = fields.pop("name", None)
    if not name:
        raise ValueError(f"--class needs name=..., got {text!r}")
    kwargs: dict = {"name": str(name)}
    mapping = {
        "weight": ("weight", float),
        "rate": ("rate_per_s", float),
        "size": ("nbytes", lambda v: float(parse_size(v))),
        "hosts": ("n_hosts", int),
        "iterations": ("iterations", int),
        "gap": ("gap_ns", parse_time_ns),
        "algorithm": ("algorithm", str),
        "dtype": ("dtype", str),
    }
    for key, value in fields.items():
        if key not in mapping:
            raise ValueError(
                f"--class field {key!r} unknown; allowed: "
                f"name,{','.join(mapping)}"
            )
        dest, conv = mapping[key]
        kwargs[dest] = conv(value)
    return TenantClass(**kwargs)


def _cmd_service(args: argparse.Namespace, topology) -> int:
    """Long-running service mode: workload in, SLO report out."""
    from repro.comm import CommError, Fabric
    from repro.service import FabricService, PoissonWorkload, TraceWorkload
    from repro.utils.units import parse_time_ns

    if args.trace:
        try:
            workload = TraceWorkload(args.trace)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load trace: {exc}", file=sys.stderr)
            return 2
        source = f"trace {args.trace} ({len(workload.jobs())} jobs)"
    else:
        duration_ns = parse_time_ns(args.duration)
        try:
            classes = [_parse_class_spec(spec) for spec in (args.tenant_class or ())]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not classes:
            classes = [
                _parse_class_spec(
                    "name=prod,weight=4,rate=2000,size=1MiB,hosts=8,"
                    "iterations=4,gap=20us,algorithm=flare_dense"
                ),
                _parse_class_spec(
                    "name=batch,weight=1,rate=500,size=4MiB,hosts=8,"
                    "iterations=2,gap=50us,algorithm=ring"
                ),
            ]
        workload = PoissonWorkload(
            classes, seed=args.seed, duration_ns=duration_ns
        )
        source = (
            f"Poisson x{len(classes)} classes over "
            f"{duration_ns / 1e6:g} ms simulated"
        )
    try:
        fabric = Fabric(
            topology=topology,
            n_hosts=args.hosts,
            routing=args.routing,
            routing_seed=args.seed,
            max_allreduces_per_switch=args.max_per_switch,
            switch_memory_bytes=args.switch_memory,
            tenant_quota=args.quota,
            provenance_db=args.provenance_db,
            run_label=f"service/{args.placement}/{args.queue}",
            **_reliability_kwargs(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.provenance_db:
        print(f"[provenance: run {fabric.run_id} -> {args.provenance_db}]")
    if args.faults:
        try:
            schedule = fabric.load_faults(args.faults, seed=args.fault_seed)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error: cannot load fault schedule: {exc}", file=sys.stderr)
            return 2
        print(f"[chaos armed: {len(schedule)} fault(s) from {args.faults}]")
    snapshot_ns = (
        parse_time_ns(args.snapshot_interval) if args.snapshot_interval else None
    )
    try:
        service = FabricService(
            fabric,
            workload,
            scheduler=args.placement,
            queue_policy=args.queue,
            snapshot_interval_ns=snapshot_ns,
            checkpoint_path=args.checkpoint,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"service: {source} on {fabric.topology.family} "
          f"({fabric.topology.n_hosts} hosts), placement={args.placement}, "
          f"queue={args.queue}")
    if args.checkpoint:
        mode = "resuming from" if (
            args.resume and os.path.exists(args.checkpoint)
        ) else "checkpointing to"
        print(f"[{mode} {args.checkpoint}]")
    if args.kill_at:
        # Crash drill: hard-kill the process at a simulated instant
        # (CI's crash-smoke job resumes from the surviving checkpoint).
        kill_ns = parse_time_ns(args.kill_at)

        def _die() -> None:
            print(f"[crash drill: hard exit at t={kill_ns:g}ns]", flush=True)
            os._exit(13)

        fabric.sim.schedule_at(kill_ns, _die)
    try:
        report = service.run(slo_out=args.slo_out, resume=args.resume)
    except (CommError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = report["jobs"]
    print(f"\njobs: {jobs['completed']}/{jobs['arrived']} completed "
          f"in {report['now_ns'] / 1e6:.2f} ms simulated; "
          f"fairness {report['fairness']:.3f}")
    for cls, s in report["classes"].items():
        if not s["iterations"]:
            continue
        print(f"  {cls} (w={s['weight']:g}): {s['iterations']} iterations, "
              f"p50 {s['p50_ns'] / 1e3:.0f} us / p95 {s['p95_ns'] / 1e3:.0f} us"
              f" / p99 {s['p99_ns'] / 1e3:.0f} us, "
              f"{s['goodput_gbps']:.2f} Gbps goodput, "
              f"{s['fell_back']} fallbacks, {s['recoveries']} recoveries")
    q = report["queue"]
    print(f"  queue[{q['policy']}]: {q['enqueued']} queued, "
          f"mean wait {q['mean_wait_ns'] / 1e3:.0f} us, "
          f"max depth {max(q['mean_depth'], q['depth']):.1f}")
    cache = report["plan_cache"]
    if cache["hit_rate"] is not None:
        print(f"  plan cache: {cache['hit_rate'] * 100:.1f}% hit rate "
              f"({cache['hits']}/{cache['hits'] + cache['misses']})")
    if report["starved_jobs"]:
        print(f"  WARNING: {len(report['starved_jobs'])} job(s) starved "
              f"(never admitted)", file=sys.stderr)
        return 3
    if report["faults"]:
        print(f"  chaos: {len(report['faults'])} fault event(s) applied; "
              "recoveries recorded per class above")
    if args.slo_out:
        print(f"[SLO report written to {args.slo_out}]")
    if args.checkpoint:
        print(f"[{service.checkpoints_written} checkpoint(s) written to "
              f"{args.checkpoint}]")
    if args.timeline_out:
        fabric.timeline_json(path=args.timeline_out)
        print(f"[timeline written to {args.timeline_out}]")
    fabric.shutdown()       # flushes provenance (no-op otherwise)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.comm import CommError, Communicator

    try:
        topology = _build_cli_topology(args)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if (
        args.tenants > 1 or args.faults or args.provenance_db
        or _reliability_kwargs(args)
    ):
        # Chaos, provenance and reliability-knob runs need the
        # persistent shared fabric (faults and retransmission timers
        # live on its links and clock; the
        # provenance recorder hangs off it), so those flags route
        # through it even for one tenant.
        return _cmd_multi_tenant_bench(args, topology)

    kwargs = _request_kwargs(args)
    try:
        comm = Communicator(
            n_hosts=args.hosts,
            n_clusters=args.clusters,
            topology=topology,
            routing=args.routing,
            routing_seed=args.seed,
            auto_mode=args.auto_mode,
        )
        plan = comm.plan(nbytes=args.size, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: 'python -m repro algorithms' lists registered "
              "algorithms and their capabilities", file=sys.stderr)
        return 2
    print(plan.describe())
    print()
    runs = []
    for i in range(args.repeat):
        t0 = time.perf_counter()
        try:
            result = comm.allreduce(args.size, seed=args.seed + i, **kwargs)
        except CommError as exc:        # e.g. the switch cannot hold it
            print(f"error: {exc}", file=sys.stderr)
            return 2
        wall = time.perf_counter() - t0
        entry = {"run": i + 1, "wall_s": wall, "summary": result.summary()}
        raw = getattr(result, "raw", None)
        if raw is not None and hasattr(raw, "n_blocks"):
            packets = raw.n_blocks * raw.n_children
            entry["packets"] = packets
            entry["packets_per_s"] = packets / wall
            entry["fast_path_used"] = getattr(raw, "fast_path_used", False)
        runs.append(entry)
        print(f"run {i + 1}/{args.repeat}: {result.summary()}  "
              f"[wall {wall * 1e3:.0f} ms]")
    info = comm.cache_info()
    print(f"\nplan cache: {info.hits} hits / {info.misses} misses "
          f"(planning ran {comm.plans_built}x for {plan.executions} executions)")
    if args.perf_json:
        import json

        from repro.provenance.identity import run_identity

        payload = {
            "benchmark": "bench",
            "algorithm": args.algorithm,
            "size": args.size,
            "hosts": args.hosts,
            "identity": run_identity(
                seed=args.seed,
                engine={"algorithm": args.algorithm, "hosts": args.hosts,
                        "repeat": args.repeat},
            ),
            "runs": runs,
        }
        with open(args.perf_json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"[perf JSON written to {args.perf_json}]")
    comm.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the experiments of 'Flare: Flexible "
        "In-Network Allreduce' (SC '21).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("algorithms", help="list registered allreduce algorithms")
    sub.add_parser("topologies", help="list built-in topology families")

    for name in EXPERIMENTS + ("all",):
        p = sub.add_parser(name, help=f"run {name}" if name != "all" else "run everything")
        p.add_argument(
            "--fast",
            action="store_true",
            help="reduced-scale run (seconds instead of minutes)",
        )

    bench = sub.add_parser(
        "bench", help="drive any registered algorithm via the Communicator"
    )
    bench.add_argument("algorithm", help="registry name, or 'auto'")
    bench.add_argument("--size", default="64KiB", help="per-host bytes (default 64KiB)")
    bench.add_argument("--hosts", type=int, default=16)
    bench.add_argument("--clusters", type=int, default=2,
                       help="simulated PsPIN clusters for switch-level algorithms")
    bench.add_argument("--op", default="sum", choices=("sum", "min", "max", "prod"))
    bench.add_argument("--sparse", action="store_true")
    bench.add_argument("--density", type=float, default=None,
                       help="non-zero fraction (default 0.1 with --sparse)")
    bench.add_argument("--reproducible", action="store_true")
    bench.add_argument("--repeat", type=int, default=3,
                       help="executions of the (cached) plan")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--topology", default=None,
                       help="topology family for network-simulated algorithms "
                       "(see 'topologies'; default: the paper's fat tree)")
    bench.add_argument("--topo-params", default=None, metavar="K=V,...",
                       help="topology constructor parameters, e.g. "
                       "dim_x=4,dim_y=4 or down=8x8,up=1x4")
    bench.add_argument("--routing", default=None, choices=_Routers(), metavar="POLICY",
                       help="path-selection policy (see 'topologies'; "
                       "default: ecmp)")
    bench.add_argument("--auto-mode", default=None,
                       choices=("static", "cost"),
                       help="selection strategy for algorithm 'auto': "
                       "'static' keeps the priority ladder, 'cost' prices "
                       "candidates with the fitted planner model "
                       "(default: static)")
    bench.add_argument("--tenants", type=int, default=1,
                       help="communicators sharing one fabric (>1 enables "
                       "the multi-tenant bench)")
    bench.add_argument("--overlap", action="store_true",
                       help="issue every tenant's collective concurrently "
                       "into the shared event loop (default: sequential)")
    bench.add_argument("--weights", default=None, metavar="W1,W2,...",
                       help="per-tenant QoS weights for link arbitration "
                       "(default: all 1.0)")
    bench.add_argument("--timeline-out", default=None, metavar="PATH",
                       help="write the fabric's per-tenant timeline JSON")
    bench.add_argument("--faults", default=None, metavar="SPEC.json",
                       help="arm a declarative fault schedule on the fabric "
                       "(link loss/slowdown/outages, switch outages); runs "
                       "through the shared fabric even with one tenant")
    bench.add_argument("--fault-seed", type=int, default=None,
                       help="seed for the per-message loss/duplicate "
                       "decisions (default: the schedule's own seed)")
    bench.add_argument("--perf-json", default=None, metavar="PATH",
                       help="write machine-readable wall-clock / packets-per-"
                       "second numbers")
    bench.add_argument("--max-retransmits", type=int, default=None,
                       metavar="N",
                       help="end-to-end retransmission budget per message "
                       "under injected faults (default 64; exhausting it "
                       "surfaces the partition as an error)")
    bench.add_argument("--ack-timeout", default=None, metavar="TIME",
                       help="host ack timeout before a chunk lost to a "
                       "fault is retransmitted end to end, e.g. 50us "
                       "(default 50us)")
    bench.add_argument("--provenance-db", default=None, metavar="PATH",
                       help="record this run (identity, per-switch/per-link "
                       "counters, energy) into a sqlite provenance database; "
                       "read it back with 'flare-repro prov list|show|diff'")

    service = sub.add_parser(
        "service",
        help="long-running service mode: Poisson/trace workload in, "
        "SLO report out",
    )
    service.add_argument("--trace", default=None, metavar="SPEC.json",
                         help="replay a JSON trace of training-job epochs "
                         "(see examples/traces/training_epochs.json); "
                         "default: Poisson arrivals per --class")
    service.add_argument("--duration", default="5ms", metavar="TIME",
                         help="simulated Poisson arrival window, e.g. 60s, "
                         "5ms (default 5ms; ignored with --trace)")
    service.add_argument("--class", dest="tenant_class", action="append",
                         metavar="K=V,...",
                         help="one tenant class: name=prod,weight=4,"
                         "rate=2000,size=1MiB,hosts=8,iterations=4,"
                         "gap=20us,algorithm=flare_dense (repeatable; "
                         "default: a prod/batch pair)")
    service.add_argument("--placement", default="pack",
                         choices=("pack", "spread"),
                         help="job placement policy over topology regions")
    service.add_argument("--queue", default="wfq", choices=("wfq", "fifo"),
                         help="admission-queue discipline")
    service.add_argument("--hosts", type=int, default=32)
    service.add_argument("--topology", default=None,
                         help="topology family (see 'topologies')")
    service.add_argument("--topo-params", default=None, metavar="K=V,...")
    service.add_argument("--routing", default=None, choices=_Routers(), metavar="POLICY",
                         help="path-selection policy (see 'topologies')")
    service.add_argument("--seed", type=int, default=0)
    service.add_argument("--max-per-switch", type=int, default=8,
                         help="pooled handler slots per switch")
    service.add_argument("--switch-memory", type=float, default=None,
                         help="pooled switch SRAM bytes (default unmetered)")
    service.add_argument("--quota", type=int, default=None,
                         help="per-tenant-class concurrency quota")
    service.add_argument("--snapshot-interval", default=None, metavar="TIME",
                         help="rolling SLO snapshot period, e.g. 1ms")
    service.add_argument("--slo-out", default=None, metavar="PATH",
                         help="write the SLO report JSON")
    service.add_argument("--timeline-out", default=None, metavar="PATH",
                         help="write the fabric's per-collective timeline")
    service.add_argument("--faults", default=None, metavar="SPEC.json",
                         help="arm a declarative fault schedule")
    service.add_argument("--fault-seed", type=int, default=None)
    service.add_argument("--max-retransmits", type=int, default=None,
                         metavar="N",
                         help="end-to-end retransmission budget per message "
                         "under injected faults (default 64)")
    service.add_argument("--ack-timeout", default=None, metavar="TIME",
                         help="host ack timeout before a fault-lost chunk "
                         "is retransmitted, e.g. 50us (default 50us)")
    service.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="atomically rewrite PATH with a crash-"
                         "consistent service checkpoint at every quiescent "
                         "SLO snapshot tick (requires --snapshot-interval)")
    service.add_argument("--resume", action="store_true",
                         help="restart from the --checkpoint file if it "
                         "exists (a missing file degrades to a fresh run, "
                         "so the same command line works before and after "
                         "a crash)")
    service.add_argument("--kill-at", default=None, metavar="TIME",
                         help="crash drill: hard-exit the process (code 13) "
                         "at this simulated instant, e.g. 1ms; resume with "
                         "--resume afterwards")
    service.add_argument("--provenance-db", default=None, metavar="PATH",
                         help="stream incremental provenance rows on every "
                         "SLO snapshot tick into a sqlite database")

    planner = sub.add_parser(
        "planner",
        help="the cost-model auto-tuning planner: offline calibration "
        "and the acceptance bench grid",
    )
    planner_sub = planner.add_subparsers(dest="planner_command", required=True)
    fit = planner_sub.add_parser(
        "fit", help="fit the cost model against the simulator and write "
        "coefficients.json"
    )
    fit.add_argument("--out", default=None, metavar="PATH",
                     help="coefficients file (default: the committed "
                     "src/repro/comm/planner/coefficients.json)")
    pbench = planner_sub.add_parser(
        "bench", help="run the acceptance grid: cost auto vs every fixed "
        "algorithm vs the static baseline (exit 1 on gate failure)"
    )
    pbench.add_argument("--hosts", type=int, default=16)
    pbench.add_argument("--out", default=None, metavar="PATH",
                        help="write rows + verdict JSON")
    pbench.add_argument("--no-check", action="store_true",
                        help="measure only; skip the acceptance gate")

    from repro.provenance.cli import add_prov_parser

    add_prov_parser(sub)

    args = parser.parse_args(argv)

    if args.command == "prov":
        from repro.provenance.cli import run_prov

        return run_prov(args)
    if args.command == "planner":
        if args.planner_command == "fit":
            from repro.comm.planner.calibrate import (
                calibrate, write_coefficients,
            )

            table = calibrate(log=print)
            path = write_coefficients(table, args.out)
            print(f"[coefficients written to {path}]")
            return 0
        from repro.perf.planner import main as planner_bench_main

        argv_out = ["--hosts", str(args.hosts)]
        if args.out:
            argv_out += ["--out", args.out]
        if args.no_check:
            argv_out += ["--no-check"]
        return planner_bench_main(argv_out)
    if args.command == "list":
        return _cmd_list()
    if args.command == "algorithms":
        return _cmd_algorithms()
    if args.command == "topologies":
        return _cmd_topologies()
    if args.command == "bench":
        if args.density is None:
            args.density = 0.1 if args.sparse else 1.0
        return _cmd_bench(args)
    if args.command == "service":
        try:
            topology = _build_cli_topology(args)
        except (TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _cmd_service(args, topology)
    targets = EXPERIMENTS if args.command == "all" else (args.command,)
    for name in targets:
        _run_one(name, args.fast)
        if len(targets) > 1:
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
