"""Layered performance ledger: five workloads, end-to-end and per-layer.

Run every workload and write the ledger (5 untraced reps each, then one
traced rep)::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed 1 --out ledger.json

Run one workload for a fixed time and print one JSON result line
(``--trace 1`` reports the per-layer metrics instead)::

    python3 benchmarks/ledger/run.py --workload storm-8k --seed 3 \\
        --seconds 10 --trace 0

Compare two ledgers row by row with the bounds of ``BENCHMARK.json``::

    python benchmarks/ledger/run.py --compare base.json head.json

Every rep runs in a fresh child process, one at a time, on one thread.
See README.md for the metrics, the workloads and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: ``setup_s`` is the median of at least this many set-ups per run.
SETUP_SAMPLES = 5
#: A time-boxed run must end within 180 s; children get what is left.
DEADLINE_S = 170.0
#: ``sim_*`` metrics are deterministic for a seed: compared exactly.
EXACT_REL = 1e-9


class ChildError(RuntimeError):
    """A rep's child process crashed or overran its time."""


# ----------------------------------------------------------------------
# Child: one rep of one workload
# ----------------------------------------------------------------------
def child(args) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - t0
    import hashlib
    import resource

    import numpy as np

    import spans
    from workloads import WORKLOADS

    w = WORKLOADS[args.child]
    inp = w.inputs(args.seed, args.scale)
    tracer = None
    if args.traced:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    t1 = time.perf_counter()
    env = w.setup(inp)
    setup_s = import_s + time.perf_counter() - t1
    if args.setup_only:
        env.close()
        return {"setup_s": setup_s}

    if tracer is not None:
        events0 = sum(sim.events_processed for sim, _ in tracer.engines)
        cache0 = env.plan_cache()
    clock = spans.Clock(tracer)
    out = w.run(env, inp, clock)
    region_s = clock.total_s
    failed = out.failed + w.check(env, inp, out)

    latency = np.asarray(out.sim_op_ns, dtype=float)
    p50, p95 = np.percentile(latency, [50, 95]) if len(latency) else (0.0, 0.0)
    sim = {
        "sim_op_ns.p50": float(p50),
        "sim_op_ns.p95": float(p95),
        "sim_makespan_ns": out.sim_makespan_ns,
        "sim_wire_bytes": out.sim_wire_bytes,
    }
    digest = hashlib.sha256(
        latency.tobytes() + repr(sorted(sim.items())).encode()
    ).hexdigest()
    result = {
        "setup_s": setup_s,
        "region_s": region_s,
        "ops": out.ops,
        "failed": failed,
        "sim": sim,
        "sim_samples": len(latency),
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        hits, misses, built = env.plan_cache()
        nets = [net for _, net in tracer.engines]
        report = out.detail.get("report", {})
        program = {
            "events": sum(sim.events_processed for sim, _ in tracer.engines) - events0,
            "plan_hits": hits - cache0[0],
            "plan_misses": misses - cache0[1],
            "plans_built": built - cache0[2],
            "messages": sum(n.traffic.messages for n in nets),
            "drops": sum(n.traffic.drops for n in nets),
            "retransmits": sum(n.traffic.retransmits for n in nets),
            "max_link_bytes": max((n.traffic.max_link_bytes for n in nets), default=0.0),
            "fallbacks": sum(
                e["fell_back"] for e in env.fabric.timeline()
            ) if env.fabric is not None else 0,
            "queue_enqueued": report.get("queue", {}).get("enqueued", 0),
            "queue_mean_wait_ns": report.get("queue", {}).get("mean_wait_ns", 0.0),
            "w1_host_s": 0.0,
        }
        summary = tracer.summary()
        env.close()
        program["provenance_rows"] = env.provenance_rows
        if hasattr(w, "reference_w1"):
            ref = w.reference_w1(inp, out)
            program["w1_host_s"] = ref.pop("host_s")
            failed += ref.pop("failed")
            result["failed"] = failed
            result["w1_reference"] = ref
        result["host_s"] = summary["host_s"]
        result["layers"] = summary["layers"]
        result["per_layer"] = spans.layer_metrics(
            summary, tracer.counts, program, out.ops
        )
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        env.close()
    return result


# ----------------------------------------------------------------------
# Parent: reps, medians, reporting
# ----------------------------------------------------------------------
def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, scale: str, timeout: float, *,
          traced: bool = False, setup_only: bool = False,
          trace_out: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", workload,
           "--seed", str(seed), "--scale", scale]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload}: rep exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"{workload}: rep failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def measure(workload: str, seed: int, scale: str, spec: dict, *,
            reps: int, seconds: float, traced: bool, deadline: float,
            trace_out: str | None = None) -> dict:
    """Untraced reps (``reps`` of them, or as many as start within
    ``seconds``), extra set-ups up to :data:`SETUP_SAMPLES`, then one
    traced rep when asked."""
    def left() -> float:
        return deadline - time.monotonic()

    runs = []
    start = time.monotonic()
    while True:
        runs.append(spawn(workload, seed, scale, left()))
        if (seconds > 0 and time.monotonic() - start >= seconds) or (
            seconds <= 0 and len(runs) >= reps
        ):
            break
    setups = [r["setup_s"] for r in runs]
    # The smoke scale only checks the plumbing: no extra set-ups.
    while scale == "full" and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, scale, left(), setup_only=True)["setup_s"])

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Same seed, same simulated results: any drift between reps fails.
    failed += sum(r["ops"] for r in runs if r["digest"] != runs[0]["digest"])
    per_rep = {
        "setup_s": setups,
        "ops_per_s": [r["ops"] / r["region_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        **{k: [r["sim"][k] for r in runs] for k in runs[0]["sim"]},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "sim_samples_per_rep": runs[0]["sim_samples"],
        "region_s": stats([r["region_s"] for r in runs]),
        "end_to_end": {
            name: {"unit": unit, **stats(per_rep[name])} for name, unit in units.items()
        },
    }
    if traced:
        t = spawn(workload, seed, scale, left(), traced=True, trace_out=trace_out)
        result["attempted"] += t["ops"]
        result["failed"] += t["failed"]
        # Tracing must not change what is simulated.
        if t["digest"] != runs[0]["digest"]:
            result["failed"] += t["ops"]
        result["fail_ratio"] = result["failed"] / result["attempted"]
        layer = dict(t["per_layer"])
        layer["bench.trace_overhead"] = t["host_s"] / result["region_s"]["median"]
        result["traced_host_s"] = t["host_s"]
        result["per_layer"] = layer
        result["layers"] = t["layers"]
        result["top_layers"] = top_layers(t["layers"], t["host_s"])
        if "w1_reference" in t:
            result["w1_reference"] = t["w1_reference"]
    return result


def top_layers(layers: dict, host_s: float, n: int = 3) -> list:
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return [[name, v["self_s"], v["self_s"] / host_s] for name, v in ranked]


def print_workload(name: str, res: dict) -> None:
    print(f"== {name}: {res['attempted']} ops attempted, {res['failed']} failed "
          f"(fail_ratio {res['fail_ratio']:g}); {res['sim_samples_per_rep']} "
          "sim_op_ns samples per rep")
    for metric, m in res["end_to_end"].items():
        print(f"   {metric:<16} {m['median']:>16.6g} {m['unit']:<4} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    if "top_layers" in res:
        tops = ", ".join(f"{n} {s:.3f} s ({share:.0%})" for n, s, share in res["top_layers"])
        print(f"   top layers by self time: {tops}")
        print(f"   trace overhead {res['per_layer']['bench.trace_overhead']:.2f}x")


def host_info() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
def label(base: dict, head: dict, bound: float, better: str, exact: bool) -> str:
    """improved / unchanged / regressed / unresolved for one row."""
    sign = 1.0 if better == "lower" else -1.0
    b, h = base["median"], head["median"]
    worse = sign * (h - b) / abs(b) if b else sign * (h - b)
    if exact:
        if abs(worse) <= EXACT_REL:
            return "unchanged"
        return "regressed" if worse > 0 else "improved"
    spread = max(
        (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0
        for m in (base, head)
    )
    if spread > bound and not all(
        sign * (x - y) < 0 for x in head["samples"] for y in base["samples"]
    ):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(base_path: str, head_path: str, spec: dict) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(head_path) as fh:
        head = json.load(fh)
    same_seed = base["seed"] == head["seed"]
    rows = []
    for wname in base["workloads"]:
        bw, hw = base["workloads"][wname], head["workloads"].get(wname)
        if hw is None:
            rows.append((wname, "*", None, None, "missing"))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            exact = same_seed and name.startswith("sim_")
            rows.append((wname, name, bw["end_to_end"][name], hw["end_to_end"][name],
                         label(bw["end_to_end"][name], hw["end_to_end"][name],
                               m["bound"], m["better"], exact)))
        fb, fh = (
            {"median": r, "q1": r, "q3": r, "samples": [r]}
            for r in (bw["fail_ratio"], hw["fail_ratio"])
        )
        rows.append((wname, "fail_ratio", fb, fh, label(fb, fh, 0.0, "lower", exact=True)))
    print(f"{'workload':<14} {'metric':<16} {'base median [q1, q3]':>38} "
          f"{'head median [q1, q3]':>38}  verdict")
    for wname, name, b, h, verdict in rows:
        if b is None:
            print(f"{wname:<14} {name:<16} {'':>38} {'':>38}  {verdict}")
            continue
        cell = lambda m: f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"  # noqa: E731
        print(f"{wname:<14} {name:<16} {cell(b):>38} {cell(h):>38}  {verdict}")
    bad = [r for r in rows if r[4] in ("regressed", "missing")]
    print(f"{len(rows)} rows: " + ", ".join(
        f"{v} {sum(r[4] == v for r in rows)}"
        for v in ("improved", "unchanged", "regressed", "unresolved", "missing")
    ))
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload and print a JSON result line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="time-box the untraced reps (default: --reps reps)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1: also run one traced rep (ledger default 1, "
                   "--workload default 0)")
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--out", help="ledger JSON to write (all workloads)")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not SPEC.is_file() or not (SRC / "repro").is_dir():
        print(f"error: needs {SPEC.name} and src/repro under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            p.error(f"unknown workload {args.workload!r}; choose from {names}")
        traced = bool(args.trace)
        deadline = time.monotonic() + DEADLINE_S
        try:
            res = measure(args.workload, args.seed, args.scale, spec, reps=args.reps,
                          seconds=args.seconds, traced=traced, deadline=deadline)
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_workload(args.workload, res)
        if traced:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = res["per_layer"]
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = {k: v["median"] for k, v in res["end_to_end"].items()}
        line = {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    traced = args.trace != 0
    ledger = {
        "ledger_version": 1,
        "seed": args.seed,
        "scale": args.scale,
        "reps": args.reps,
        "host": host_info(),
        "workloads": {},
    }
    trace_dir = f"{args.out}.trace" if args.out and traced else None
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    for name in names:
        try:
            res = measure(
                name, args.seed, args.scale, spec, reps=args.reps, seconds=args.seconds,
                traced=traced, deadline=time.monotonic() + 3600.0,
                trace_out=os.path.abspath(os.path.join(trace_dir, f"{name}.json"))
                if trace_dir else None,
            )
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ledger["workloads"][name] = res
        print_workload(name, res)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
        print(f"ledger written to {args.out}")
    return 0 if all(w["failed"] == 0 for w in ledger["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
