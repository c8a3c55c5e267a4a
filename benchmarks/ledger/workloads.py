"""The five ledger workloads.

Each workload has four steps, run in this order in one child process:

* ``inputs(seed, scale)`` — every input the program receives, generated
  from the seed with numpy alone (payload pools, op mixes, per-call
  seeds, destinations).  The op mix is stratified: every combination
  of op kind and size appears equally often and the seed picks the
  order, the few left-over ops and the payload values, so a seed moves
  the simulated results without moving how much host work a rep holds.
* ``setup(inp)`` — builds the program's objects (timed as ``setup_s``).
* ``run(env, inp, clock)`` — the timed region.  The closed loops of one
  blocking client time each op and check its output between ops; the
  others time one interval from the first submitted op to the last
  completion.  Plan caches start cold, as in every user run.
* ``check(env, inp, out)`` — correctness checks that need the whole
  run, outside the timed region; returns the number of failed ops.

Only the public API is used: ``Communicator``, ``Fabric``,
``FabricService`` and ``build_engine``/``NetworkSimulator``.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

KIB = 1024
#: Where the service's provenance database goes, in a scratch directory
#: removed after the rep: the benchmark writes nowhere else.
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Env:
    """The program objects a workload built in ``setup``."""

    comms: list = field(default_factory=list)
    fabric: object = None
    service: object = None
    storm: tuple = ()
    db_path: Optional[str] = None
    tmpdir: Optional[str] = None
    #: Set by :meth:`close`: rows the provenance recorder wrote.
    provenance_rows: int = 0

    def plan_cache(self) -> tuple[int, int, int]:
        """``(hits, misses, plans_built)`` summed over the tenants."""
        if self.service is not None:
            info = self.service.cache_info()
            return info["hits"], info["misses"], info["misses"]
        infos = [c.cache_info() for c in self.comms]
        return (
            sum(i.hits for i in infos),
            sum(i.misses for i in infos),
            sum(c.plans_built for c in self.comms),
        )

    def close(self) -> None:
        if self.fabric is not None:
            self.fabric.shutdown()
        if self.tmpdir is not None:
            self.provenance_rows = provenance_rows(self.db_path)
            shutil.rmtree(self.tmpdir, ignore_errors=True)


@dataclass
class Outcome:
    """What the timed region produced."""

    ops: int
    sim_op_ns: np.ndarray
    sim_makespan_ns: float
    sim_wire_bytes: float
    failed: int = 0
    detail: dict = field(default_factory=dict)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, name))])


def stratified(rng: np.random.Generator, combos: list, n: int) -> list:
    """``n`` draws over ``combos``: whole rounds of every combination
    plus a seed-chosen subset (without replacement) for the rest, in
    seed-shuffled order."""
    rounds, rest = divmod(n, len(combos))
    picks = list(range(len(combos))) * rounds
    picks += rng.choice(len(combos), size=rest, replace=False).tolist()
    rng.shuffle(picks)
    return [combos[i] for i in picks]


def _pool(rng, pool_size: int, shape: tuple, dtype: str) -> list:
    # Small non-negative integers: exactly representable in fp32, and
    # a 64-host sum cannot overflow or round.
    return [rng.integers(0, 7, size=shape).astype(dtype) for _ in range(pool_size)]


# ----------------------------------------------------------------------
# switch-dense
# ----------------------------------------------------------------------
class SwitchDense:
    name = "switch-dense"
    scales = {"full": {"ops": 500}, "smoke": {"ops": 15}}
    CHILDREN = 64
    CLUSTERS = 4
    ELEMENTS = 256                      # 1 KiB packets of 4-byte elements
    SIZES = (4 * KIB, 16 * KIB, 64 * KIB)
    #: (dtype, aggregation, reproducible, op)
    KINDS = (
        ("int32", "single", False, "sum"),
        ("int32", "multi(4)", False, "sum"),
        ("int32", "tree", False, "sum"),
        ("float32", "tree", True, "sum"),
        ("float32", None, False, "max"),
    )
    POOL = 3

    def inputs(self, seed: int, scale: str) -> dict:
        rng = _rng(seed, self.name)
        combos = [(k, s) for k in self.KINDS for s in self.SIZES]
        ops = stratified(rng, combos, self.scales[scale]["ops"])
        pools = {
            (dtype, size): _pool(
                rng, self.POOL,
                (self.CHILDREN, size // (4 * self.ELEMENTS), self.ELEMENTS), dtype,
            )
            for dtype in ("int32", "float32")
            for size in self.SIZES
        }
        refs: dict = {}
        calls = []
        for i, ((dtype, agg, repro, op), size) in enumerate(ops):
            key = (dtype, size, i % self.POOL, op)
            payload = pools[key[:2]][key[2]]
            if key not in refs:
                refs[key] = payload.max(axis=0) if op == "max" else payload.sum(
                    axis=0, dtype=payload.dtype
                )
            ref = refs[key]
            kwargs = {"op": op, "reproducible": repro,
                      "seed": int(rng.integers(2**31))}
            if agg is not None:
                kwargs["aggregation"] = agg
            calls.append((payload, kwargs, ref))
        return {"calls": calls}

    def setup(self, inp: dict) -> Env:
        from repro import Communicator

        return Env(comms=[Communicator(n_hosts=self.CHILDREN, n_clusters=self.CLUSTERS)])

    def run(self, env: Env, inp: dict, clock) -> Outcome:
        comm = env.comms[0]

        def call(payload, kwargs, _ref):
            return comm.allreduce(payload, algorithm="flare_switch", **kwargs)

        def ok(result, _payload, _kwargs, ref):
            outputs = result.extra["outputs"]
            got = np.stack([outputs[b] for b in range(len(ref))])
            return got.dtype == ref.dtype and np.array_equal(got, ref)

        return closed_loop(clock, call, ok, inp["calls"])

    def check(self, env: Env, inp: dict, out: Outcome) -> int:
        return 0


def closed_loop(clock, call, ok, calls: list) -> Outcome:
    """One blocking client: ``call(*args)`` runs each op alone inside
    the timer, ``ok(result, *args)`` checks it after the timer stops.
    The simulated makespan is the sum of the per-call makespans."""
    times, wire, failed = [], 0.0, 0
    for args in calls:
        try:
            with clock():
                result = call(*args)
        except Exception:
            failed += 1
            continue
        failed += not ok(result, *args)
        times.append(result.time_ns)
        wire += result.traffic_bytes_hops
    return Outcome(
        ops=len(calls),
        sim_op_ns=np.array(times),
        sim_makespan_ns=float(sum(times)),
        sim_wire_bytes=wire,
        failed=failed,
    )


# ----------------------------------------------------------------------
# switch-sparse
# ----------------------------------------------------------------------
class SwitchSparse:
    name = "switch-sparse"
    scales = {"full": {"ops": 200}, "smoke": {"ops": 12}}
    CHILDREN = 64
    CLUSTERS = 4
    STORAGE = ("hash", "array")
    DENSITY = (0.01, 0.1)
    SIZES = (2 * KIB, 4 * KIB, 8 * KIB)

    def inputs(self, seed: int, scale: str) -> dict:
        rng = _rng(seed, self.name)
        combos = [(st, d, s) for st in self.STORAGE for d in self.DENSITY for s in self.SIZES]
        ops = stratified(rng, combos, self.scales[scale]["ops"])
        return {"calls": [
            (size, {"storage": st, "density": d, "seed": int(rng.integers(2**31))})
            for st, d, size in ops
        ]}

    def setup(self, inp: dict) -> Env:
        from repro import Communicator

        return Env(comms=[Communicator(n_hosts=self.CHILDREN, n_clusters=self.CLUSTERS)])

    def run(self, env: Env, inp: dict, clock) -> Outcome:
        comm = env.comms[0]

        def call(size, kwargs):
            # Size-only: the library checks the sums against its own
            # golden model and raises on a mismatch.
            return comm.allreduce(size, algorithm="flare_switch_sparse", sparse=True, **kwargs)

        def ok(result, _size, _kwargs):
            return bool(result.extra.get("feasible"))

        return closed_loop(clock, call, ok, inp["calls"])

    def check(self, env: Env, inp: dict, out: Outcome) -> int:
        return 0


# ----------------------------------------------------------------------
# fabric-mix
# ----------------------------------------------------------------------
class FabricMix:
    name = "fabric-mix"
    scales = {"full": {"ops": 1000}, "smoke": {"ops": 28}}
    HOSTS = 16
    WEIGHTS = (4.0, 2.0, 1.0, 1.0)
    PAYLOAD_KINDS = ("ring", "swing", "butterfly", "flare_dense")
    SPARSE_KINDS = ("sparcml", "flare_sparse")
    KINDS = PAYLOAD_KINDS + SPARSE_KINDS + ("auto",)
    SIZES = (16 * KIB, 64 * KIB, 256 * KIB)
    DENSITY = 0.002                     # the Fig. 15 density
    POOL = 3

    def inputs(self, seed: int, scale: str) -> dict:
        rng = _rng(seed, self.name)
        combos = [(k, s) for k in self.KINDS for s in self.SIZES]
        ops = stratified(rng, combos, self.scales[scale]["ops"])
        pools = {s: _pool(rng, self.POOL, (self.HOSTS, s // 4), "int32") for s in self.SIZES}
        calls = []
        for i, (kind, size) in enumerate(ops):
            if kind in self.PAYLOAD_KINDS:
                payload = pools[size][i % self.POOL]
                calls.append((kind, payload, payload.sum(axis=0, dtype=np.int32)))
            else:
                calls.append((kind, size, None))
        return {"calls": calls}

    def setup(self, inp: dict) -> Env:
        from repro.comm.fabric import Fabric

        fabric = Fabric(n_hosts=self.HOSTS)
        comms = [
            fabric.communicator(name=f"tenant{i}", weight=w, auto_mode="cost")
            for i, w in enumerate(self.WEIGHTS)
        ]
        return Env(comms=comms, fabric=fabric)

    def _issue(self, comm, kind, data):
        if kind in self.PAYLOAD_KINDS:
            return comm.iallreduce(data, algorithm=kind)
        if kind in self.SPARSE_KINDS:
            return comm.iallreduce(data, algorithm=kind, sparse=True, density=self.DENSITY)
        return comm.iallreduce(data, algorithm="auto")

    def run(self, env: Env, inp: dict, clock) -> Outcome:
        calls = inp["calls"]
        futures: list = [None] * len(calls)
        state = {"next": 0, "failed": 0}

        def issue_next(comm) -> None:
            # Closed loop: each tenant issues its next collective from
            # the previous one's done-callback, drawing from one queue.
            while state["next"] < len(calls):
                i = state["next"]
                state["next"] += 1
                kind, data, _ref = calls[i]
                try:
                    fut = self._issue(comm, kind, data)
                except Exception:
                    state["failed"] += 1
                    continue
                futures[i] = fut
                fut.add_done_callback(lambda f, comm=comm: issue_next(comm))
                return

        fabric = env.fabric
        with clock():
            for comm in env.comms:
                issue_next(comm)
            fabric.run()
        timeline = fabric.timeline()
        return Outcome(
            ops=len(calls),
            sim_op_ns=np.array([e["duration_ns"] for e in timeline if e["status"] == "done"]),
            sim_makespan_ns=float(fabric.now),
            sim_wire_bytes=float(fabric.net.traffic.bytes_hops),
            failed=state["failed"],
            detail={"futures": futures},
        )

    def check(self, env: Env, inp: dict, out: Outcome) -> int:
        bad = 0
        for (_kind, _data, ref), fut in zip(inp["calls"], out.detail["futures"]):
            if fut is None:
                continue
            if not fut.done() or fut.exception() is not None:
                bad += 1
            elif ref is not None:
                got = fut.result().extra.get("output")
                if got is None or got.dtype != ref.dtype or not np.array_equal(got, ref):
                    bad += 1
        return bad


# ----------------------------------------------------------------------
# service-512
# ----------------------------------------------------------------------
class Service512:
    name = "service-512"
    scales = {"full": {"tenants": 512, "iterations": 4},
              "smoke": {"tenants": 16, "iterations": 2}}
    HOSTS = 32
    MAX_PER_SWITCH = 2
    JOB_BYTES = 256 * KIB
    JOB_HOSTS = 8
    GAP_NS = 20_000.0
    SPACING_NS = 1_000.0
    #: class -> (weight, algorithm)
    CLASSES = {"prod": (4.0, "flare_dense"), "batch": (1.0, "ring")}

    def inputs(self, seed: int, scale: str) -> dict:
        rng = _rng(seed, self.name)
        size = self.scales[scale]
        n = size["tenants"]
        # The burst trace of perf/service.py with half the tenants in
        # each QoS class; the seed decides which arrival slot is which.
        labels = np.array(["prod", "batch"] * (n // 2) + ["prod"] * (n % 2))
        rng.shuffle(labels)
        trace = {
            "schema_version": 1,
            "classes": {c: {"weight": w} for c, (w, _a) in self.CLASSES.items()},
            "jobs": [
                {
                    "tenant": str(c),
                    "arrival": i * self.SPACING_NS,
                    "size": float(self.JOB_BYTES),
                    "algorithm": self.CLASSES[str(c)][1],
                    "gap": self.GAP_NS,
                    "iterations": size["iterations"],
                    "n_hosts": self.JOB_HOSTS,
                }
                for i, c in enumerate(labels)
            ],
        }
        return {"trace": trace, "jobs": n, "iterations": n * size["iterations"]}

    def setup(self, inp: dict) -> Env:
        from repro.comm.fabric import Fabric
        from repro.service import FabricService, TraceWorkload

        tmpdir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
        db = os.path.join(tmpdir, "provenance.db")
        fabric = Fabric(
            n_hosts=self.HOSTS,
            max_allreduces_per_switch=self.MAX_PER_SWITCH,
            provenance_db=db,
            run_label=f"ledger/{self.name}",
        )
        service = FabricService(
            fabric, TraceWorkload(inp["trace"]), scheduler="pack", queue_policy="wfq"
        )
        return Env(fabric=fabric, service=service, db_path=db, tmpdir=tmpdir)

    def run(self, env: Env, inp: dict, clock) -> Outcome:
        with clock():
            report = env.service.run()
        samples = env.service.stats.to_state()["iteration_ns"]
        return Outcome(
            ops=inp["iterations"],
            sim_op_ns=np.concatenate([np.asarray(samples[c]) for c in sorted(samples)]),
            sim_makespan_ns=float(report["now_ns"]),
            sim_wire_bytes=float(env.fabric.net.traffic.bytes_hops),
            detail={"report": report},
        )

    def check(self, env: Env, inp: dict, out: Outcome) -> int:
        # Every job completes, none starves: each missing iteration fails.
        report = out.detail["report"]
        missing = inp["iterations"] - len(out.sim_op_ns)
        if report["jobs"]["completed"] != inp["jobs"] or report["starved_jobs"]:
            missing = max(missing, 1)
        return missing


# ----------------------------------------------------------------------
# storm-8k
# ----------------------------------------------------------------------
class Storm8k:
    name = "storm-8k"
    scales = {
        "full": {"n_hosts": 8192, "hosts_per_leaf": 32, "n_spines": 16, "msgs": 16},
        "smoke": {"n_hosts": 512, "hosts_per_leaf": 32, "n_spines": 16, "msgs": 2},
    }
    MSG_BYTES = 4096.0

    def inputs(self, seed: int, scale: str) -> dict:
        rng = _rng(seed, self.name)
        size = self.scales[scale]
        n, m = size["n_hosts"], size["msgs"]
        src = np.repeat(np.arange(n), m)
        dst = rng.integers(0, n - 1, size=n * m)
        dst += dst >= src                     # never to itself
        # Fixed send times on a 3 ns grid, as in perf/simcore.py.
        at = 3.0 * (np.arange(n * m) % 97)
        return {"shape": size, "src": src.tolist(), "dst": dst.tolist(), "at": at.tolist()}

    def _build(self, shape: dict, workers: int):
        import repro.pspin.pdes as pdes
        from repro.network import FatTreeTopology

        topo = FatTreeTopology(
            n_hosts=shape["n_hosts"], hosts_per_leaf=shape["hosts_per_leaf"],
            n_spines=shape["n_spines"],
        )
        return topo, pdes.build_engine(
            topo, workers=workers, router="updown", arbitration="fifo",
            coordinator_hosts=False,
        )

    def setup(self, inp: dict) -> Env:
        topo, (sim, net) = self._build(inp["shape"], workers=0)
        return Env(storm=(topo, sim, net, self._sink(net, topo, len(inp["src"]))))

    @staticmethod
    def _sink(net, topo, n_msgs: int) -> list:
        arrivals = [0] * n_msgs
        delivered_at = [0.0] * n_msgs

        def sink(msg, t):
            i = msg.tag
            arrivals[i] += 1
            delivered_at[i] = t

        for h in topo.hosts:
            net.on_deliver(h, sink)
        return [arrivals, delivered_at]

    @staticmethod
    def _send_all(net, topo, inp: dict) -> None:
        from repro.network import Message

        hosts = topo.hosts
        size = Storm8k.MSG_BYTES
        send = net.send
        for i, (s, d, t) in enumerate(zip(inp["src"], inp["dst"], inp["at"])):
            send(Message(hosts[s], hosts[d], size, i), at=t)

    def run(self, env: Env, inp: dict, clock) -> Outcome:
        topo, sim, net, (_arrivals, delivered_at) = env.storm
        with clock():
            self._send_all(net, topo, inp)
            sim.run()
        return Outcome(
            ops=len(inp["src"]),
            sim_op_ns=np.asarray(delivered_at) - np.asarray(inp["at"]),
            sim_makespan_ns=float(sim.now),
            sim_wire_bytes=float(net.traffic.bytes_hops),
        )

    def check(self, env: Env, inp: dict, out: Outcome) -> int:
        arrivals = env.storm[3][0]
        return sum(1 for a in arrivals if a != 1)     # exactly once

    def reference_w1(self, inp: dict, out: Outcome) -> dict:
        """The same storm on the sharded engine with one worker process:
        host seconds, messages not delivered exactly once, and how many
        message latencies differ from the sequential run.

        Random destinations make same-instant FIFO ties on shared links,
        which the two engines break differently, so latencies are
        reported, not checked (see README)."""
        topo, (sim, net) = self._build(inp["shape"], workers=1)
        try:
            arrivals, delivered_at = self._sink(net, topo, len(inp["src"]))
            self._send_all(net, topo, inp)
            t0 = time.perf_counter()
            sim.run()
            host_s = time.perf_counter() - t0
        finally:
            if hasattr(net, "shutdown"):
                net.shutdown()
        latency = np.asarray(delivered_at) - np.asarray(inp["at"])
        return {
            "host_s": host_s,
            "failed": sum(1 for a in arrivals if a != 1),
            "latency_mismatches": int((latency != out.sim_op_ns).sum()),
            "same_makespan": sim.now == out.sim_makespan_ns,
        }


WORKLOADS = {w.name: w for w in (SwitchDense(), SwitchSparse(), FabricMix(), Service512(), Storm8k())}


def provenance_rows(db_path: Optional[str]) -> int:
    """Rows the provenance recorder wrote, over every table."""
    if db_path is None or not os.path.exists(db_path):
        return 0
    conn = sqlite3.connect(db_path)
    try:
        tables = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
        )]
        return sum(conn.execute(f'SELECT COUNT(*) FROM "{t}"').fetchone()[0] for t in tables)
    finally:
        conn.close()


def inputs_digest(inp) -> str:
    """Stable hash of a workload's generated inputs."""
    import hashlib

    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, dict):
            for k in sorted(x, key=str):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(inp)
    return h.hexdigest()
