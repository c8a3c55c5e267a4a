"""Registered algorithm backends.

Adapts every allreduce implementation in the repository to the
plan/execute contract of :mod:`repro.comm`:

* network schedules from :mod:`repro.collectives.schedule` — the host
  exchanges ``ring``, ``swing``, ``butterfly``, ``rabenseifner``,
  ``recursive_doubling`` and ``sparcml``, and the in-network trees
  ``flare_dense`` and ``flare_sparse``;
* the switch-level PsPIN driver of :mod:`repro.core.allreduce`, dense
  (``flare_switch``) and sparse (``flare_switch_sparse``).  Standalone,
  each runs the single-switch simulation; on a fabric each issues the
  matching tree (``flare_dense``'s, ``flare_sparse``'s) with every
  switch priced by that simulation.

Planners do the one-time work — topology shaping, reduction-tree
embedding, schedule tables and message sizing, Sec. 6.4 handler
selection — and return an issuer that only executes the data plane on
a fabric.  A standalone ``plan.execute`` of a network schedule issues
it into a fresh one-tenant fabric wired by :class:`_TopologySource`.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from functools import partial
from typing import Optional

import numpy as np

from repro.collectives.result import CollectiveResult
from repro.collectives.schedule import (
    ExchangeTable,
    TreeSchedule,
    dense_tree,
    resolve_hosts,
    sparcml_round_bytes,
    sparse_tree,
)
from repro.comm.plan import IssueContext, PlannedExecution
from repro.comm.registry import AlgorithmCaps, CapabilityError, register_algorithm
from repro.comm.request import CollectiveRequest
from repro.core.allreduce import DenseDesign, plan_switch_allreduce
from repro.network.routing import available_routers
from repro.network.topology import Topology, build_topology
from repro.network import topologies as _topologies  # noqa: F401  (registers families)
from repro.network.trees import TreePlanner
from repro.pspin.costs import get_dtype
from repro.sparse.densify import DENSE_ELEMENT_BYTES, SPARSE_ELEMENT_BYTES

#: Families the tree-schedule (in-network) algorithms can plan over —
#: everything the TreePlanner handles today.  Host-based schedules
#: accept any routable topology ("*").
TREE_PLANNABLE = ("fat-tree", "xgft", "dragonfly", "torus", "multi-rail")

#: ``flare_dense``'s default ``chunk_bytes``, and the chunk size of
#: ``flare_switch``'s tree on a fabric.
TREE_CHUNK_BYTES = 1024 * 1024

#: What every switch of a ``flare_dense`` / ``flare_sparse`` tree spends
#: aggregating one chunk.
DENSE_AGG_NS_PER_CHUNK = 2000.0
SPARSE_AGG_NS_PER_CHUNK = 4000.0


# ----------------------------------------------------------------------
# Topology handling
# ----------------------------------------------------------------------
def _default_hosts_per_leaf(n_hosts: int) -> int:
    for d in (8, 4, 2):
        if n_hosts % d == 0 and n_hosts > d:
            return d
    return n_hosts


def default_fat_tree_kwargs(n_hosts: int, params: dict) -> dict:
    """The paper's default fat-tree sizing from legacy knobs.

    Single source of truth shared by plans (:class:`_TopologySource`)
    and :class:`repro.comm.fabric.Fabric`: both must wire the identical
    fabric from the same inputs or tree node names would diverge.
    """
    hpl = params.get("hosts_per_leaf") or _default_hosts_per_leaf(n_hosts)
    return dict(
        n_hosts=n_hosts,
        hosts_per_leaf=hpl,
        n_spines=min(params.get("n_spines", 4), hpl),
        link_gbps=params.get("link_gbps", 100.0),
        link_latency_ns=params.get("link_latency_ns", 250.0),
    )


class _TopologySource:
    """Topology + routing-policy instances for a plan's executions.

    ``params["topology"]`` may be a family name (built from
    ``params["topology_params"]``) or a
    :class:`~repro.network.topology.Topology`; absent means the
    paper's fat tree sized from the legacy knobs, with ``n_spines``
    capped at the leaf uplink capacity.  :attr:`shape` serves plan-time
    inspection; link state is mutated by a run, so every run gets a
    :meth:`fresh` copy.
    """

    def __init__(self, request: CollectiveRequest) -> None:
        p = request.params
        self.routing = p.get("routing") or "ecmp"
        if self.routing not in available_routers():
            raise CapabilityError(
                f"unknown routing policy {self.routing!r}; "
                f"available: {available_routers()}"
            )
        self.routing_seed = p.get("routing_seed", 0)
        topo = p.get("topology")
        if isinstance(topo, Topology):
            self.family = topo.family
            self._kwargs = dict(topo.describe())
        else:
            self.family = topo or "fat-tree"
            self._kwargs = dict(p.get("topology_params") or {})
            if self.family == "fat-tree" and not self._kwargs:
                self._kwargs = default_fat_tree_kwargs(request.n_hosts, p)
            topo = build_topology(self.family, **self._kwargs)
        self.shape: Topology = topo       # plan-time inspection only
        placed = p.get("hosts")
        self.hosts: "Optional[list]" = None
        if placed is not None:
            placed = list(placed)
            known = set(topo.hosts)
            for h in placed:
                if h not in known:
                    raise CapabilityError(
                        f"placement names host {h!r} which topology "
                        f"{self.family!r} does not wire"
                    )
            if len(set(placed)) != len(placed):
                raise CapabilityError("placement lists a host twice")
            if len(placed) != request.n_hosts:
                raise CapabilityError(
                    f"placement names {len(placed)} hosts but the request "
                    f"names {request.n_hosts}; size the placement (or the "
                    "request) to match"
                )
            self.hosts = placed
        elif topo.n_hosts != request.n_hosts:
            raise CapabilityError(
                f"topology {self.family!r} wires {topo.n_hosts} hosts but the "
                f"request names {request.n_hosts}; size the topology (or the "
                "request) to match, or pass params['hosts'] to place the "
                "collective on a subset"
            )

    def fresh(self) -> Topology:
        """A topology with idle links for one run: the planned shape
        rebuilt, with :attr:`shape`'s failed switches and links."""
        topo = build_topology(self.family, **self._kwargs)
        for switch in self.shape.failed_switches():
            topo.fail_switch(switch)
        for a, b in self.shape.failed_links():
            topo.fail_link(a, b)
        return topo

    def plan_tree(self, request: CollectiveRequest):
        """The aggregation tree for in-network schedules: an explicit
        ``params["tree"]``, else a planned BFS tree rooted at
        ``params["tree_root"]`` (default: the topmost candidate, which on
        the fat tree is the classic spine-rooted embedding) over the
        placed hosts."""
        tree = request.params.get("tree")
        if tree is not None:
            return tree
        return TreePlanner(self.shape).plan(
            root=request.params.get("tree_root"), hosts=self.hosts
        )

    def describe(self) -> dict:
        return {
            "family": self.family,
            **self._kwargs,
            "routing": self.routing,
        }

    def check_fabric(self, net) -> None:
        """Issue-time guard: a shared fabric must wire the same fabric
        this plan was shaped for (same family and parameters), or tree
        node names and host lists would silently mismatch."""
        if net.topology.fingerprint() != self.shape.fingerprint():
            raise CapabilityError(
                f"plan was shaped for topology {self.describe()!r} but the "
                f"fabric wires {dict(net.topology.describe())!r}; attach the "
                "communicator to a matching fabric or replan"
            )


# ----------------------------------------------------------------------
# Network schedules
# ----------------------------------------------------------------------
_SIMULATION_ONLY_REASON = (
    "is a timing/traffic simulation and does not reduce payload values; "
    "pass a byte size instead, or use an executing algorithm "
    "(flare_switch, rabenseifner, recursive_doubling)"
)


def _simulation_only(request: CollectiveRequest, payloads) -> Optional[str]:
    """`payload_rejects` hook shared by all timing-only backends."""
    return _SIMULATION_ONLY_REASON


def _network_payload_rejects(
    request: CollectiveRequest, payloads
) -> Optional[str]:
    """Payload gate for ring, swing, butterfly and flare_dense.

    Payload execution is *opt-in by naming the algorithm*: under
    ``algorithm="auto"`` these remain timing simulations, so automatic
    selection keeps preferring flare_switch and the host fallbacks
    (rabenseifner, recursive_doubling) for payloads exactly as before.
    Explicitly-named requests carry and bitwise-reduce real data (the
    differential and chaos suites drive this path).
    """
    if request.algorithm == "auto":
        return _SIMULATION_ONLY_REASON
    if request.sparse:
        return "sparse payload execution unsupported; pass a byte size"
    try:
        arr = np.asarray(payloads)
    except ValueError:           # ragged list: numpy >= 1.24 raises
        arr = None
    if arr is None or arr.dtype == object:
        return "payloads must stack into one dense (n_hosts, ...) array"
    return None


def _reject_payloads(name: str, payloads) -> None:
    """Timing/traffic simulations never touch payload values.

    Silently discarding user data would contradict the Communicator's
    payload contract, so refuse it loudly (defense in depth behind the
    ``payload_rejects`` hook, for direct ``plan.execute`` misuse).
    """
    if payloads is not None:
        raise ValueError(f"algorithm {name!r} {_SIMULATION_ONLY_REASON}")


def _network_plan(source: _TopologySource, issue, setup: dict) -> PlannedExecution:
    """The plan of a network schedule.

    ``issue(net, flow=, payloads=, on_complete=)`` starts one run in a
    fabric's simulator (a standalone ``plan.execute`` issues into a
    fresh one-tenant fabric).
    """

    def issuer(ctx: IssueContext, payloads, overrides) -> None:
        source.check_fabric(ctx.net)
        issue(ctx.net, flow=ctx.flow, payloads=payloads, on_complete=ctx.finish)

    return PlannedExecution(issuer, {"topology": source.describe(), **setup})


def _plan_exchange(
    request: CollectiveRequest, algorithm: str, *,
    host_reduce_bytes_per_ns: float = 0.0, **table_kwargs,
) -> PlannedExecution:
    """Shared planner of the host exchanges (:class:`ExchangeTable`);
    ``host_reduce_bytes_per_ns`` is the default of that knob."""
    source = _TopologySource(request)
    p = request.params
    table = ExchangeTable(
        algorithm,
        resolve_hosts(source.shape, source.hosts),
        request.nbytes,
        sub_chunk_bytes=p.get("sub_chunk_bytes", 128 * 1024),
        host_reduce_bytes_per_ns=p.get(
            "host_reduce_bytes_per_ns", host_reduce_bytes_per_ns
        ),
        **table_kwargs,
    )
    return _network_plan(
        source, partial(table.issue, op=request.op),
        {**table.extra, "bytes_per_host": sum(table.step_bytes)},
    )


def _plan_tree(source: _TopologySource, schedule: TreeSchedule, op) -> PlannedExecution:
    """Shared planner tail of the in-network tree schedules."""
    tree = schedule.tree
    return _network_plan(source, partial(schedule.issue, op=op), {
        **schedule.extra,
        "tree_switches": list(tree.switches()),
        "tree_links": [tuple(edge) for edge in tree.tree_links()],
        "root_fan_in": tree.fan_in(tree.root),
    })


@register_algorithm(
    "rabenseifner",
    caps=AlgorithmCaps(
        dense=True,
        reproducible=True,
        ops=("sum",),
        power_of_two_hosts=True,
        min_hosts=2,
        priority=20,
        description="host-based Rabenseifner allreduce (recursive halving "
        "from distance P/2, then doubling) on the network simulator; the "
        "executing host fallback for payloads",
    ),
)
def _plan_rabenseifner(request: CollectiveRequest) -> PlannedExecution:
    return _plan_exchange(request, "rabenseifner")


@register_algorithm(
    "recursive_doubling",
    caps=AlgorithmCaps(
        dense=True,
        reproducible=True,
        ops=("sum",),
        power_of_two_hosts=True,
        min_hosts=2,
        priority=15,
        description="host-based recursive doubling (latency-optimal, "
        "full-vector exchanges) on the network simulator",
    ),
)
def _plan_recursive_doubling(request: CollectiveRequest) -> PlannedExecution:
    return _plan_exchange(request, "recursive_doubling")


@register_algorithm(
    "ring",
    payload_rejects=_network_payload_rejects,
    caps=AlgorithmCaps(
        dense=True,
        reproducible=True,
        ops=("*",),
        min_hosts=2,
        priority=10,
        description="host-based pipelined ring on the network simulator "
        "(the Fig. 15 dense baseline; any topology, any routing policy; "
        "carries and bitwise-reduces real payloads when explicitly named)",
    ),
)
def _plan_ring(request: CollectiveRequest) -> PlannedExecution:
    return _plan_exchange(request, "ring")


@register_algorithm(
    "butterfly",
    payload_rejects=_network_payload_rejects,
    caps=AlgorithmCaps(
        dense=True,
        reproducible=True,
        ops=("*",),
        power_of_two_hosts=True,
        min_hosts=2,
        priority=13,
        description="host-based recursive halving/doubling as a network "
        "schedule (2 log2(P) latency-short steps at ring byte volume; any "
        "topology; carries and bitwise-reduces real payloads when "
        "explicitly named)",
    ),
)
def _plan_butterfly(request: CollectiveRequest) -> PlannedExecution:
    return _plan_exchange(request, "butterfly")


@register_algorithm(
    "swing",
    payload_rejects=_network_payload_rejects,
    caps=AlgorithmCaps(
        dense=True,
        reproducible=True,
        ops=("*",),
        power_of_two_hosts=True,
        min_hosts=2,
        priority=12,
        description="Swing allreduce (arXiv 2401.09356): halving/doubling "
        "with |1-(-2)^(s+1)|/3 partner distances, keeping every exchange "
        "short on torus-like fabrics; carries and bitwise-reduces real "
        "payloads when explicitly named",
    ),
)
def _plan_swing(request: CollectiveRequest) -> PlannedExecution:
    return _plan_exchange(request, "swing")


@register_algorithm(
    "sparcml",
    payload_rejects=_simulation_only,
    caps=AlgorithmCaps(
        dense=False,
        sparse=True,
        ops=("sum",),
        power_of_two_hosts=True,
        min_hosts=2,
        priority=30,
        description="SparCML split sparse allreduce (SSAR halving/doubling) "
        "on the network simulator (any topology, any routing policy)",
    ),
)
def _plan_sparcml(request: CollectiveRequest) -> PlannedExecution:
    """SSAR is the rabenseifner table with sparse message sizes.  Merging
    sparse (index, value) streams is CPU-bound in SparCML's own
    evaluation, unlike the streaming dense adds of the ring, so the
    reduce-scatter steps default to 2.5 B/ns of host reduction."""
    p = request.params
    return _plan_exchange(
        request, "rabenseifner",
        host_reduce_bytes_per_ns=2.5,
        step_bytes=sparcml_round_bytes(
            request.n_hosts,
            request.total_elements,
            p.get("bucket_span", 512),
            p.get("nnz_per_bucket", 1.0),
        ),
        label="host-sparse (SparCML)",
    )


@register_algorithm(
    "flare_dense",
    payload_rejects=_network_payload_rejects,
    caps=AlgorithmCaps(
        dense=True,
        in_network=True,
        ops=("*",),
        min_hosts=2,
        topologies=TREE_PLANNABLE,
        priority=40,
        description="Flare in-network dense allreduce on the network "
        "simulator (each host sends/receives Z once; aggregation tree "
        "planned over any topology; carries and bitwise-reduces real "
        "payloads when explicitly named)",
    ),
)
def _plan_flare_dense(request: CollectiveRequest) -> PlannedExecution:
    source = _TopologySource(request)
    p = request.params
    schedule = dense_tree(
        source.plan_tree(request),
        request.nbytes,
        chunk_bytes=p.get("chunk_bytes", TREE_CHUNK_BYTES),
        agg_latency_ns=DENSE_AGG_NS_PER_CHUNK,
    )
    return _plan_tree(source, schedule, request.op)


@register_algorithm(
    "flare_sparse",
    payload_rejects=_simulation_only,
    caps=AlgorithmCaps(
        dense=False,
        sparse=True,
        in_network=True,
        ops=("sum",),
        min_hosts=2,
        topologies=TREE_PLANNABLE,
        priority=45,
        description="Flare in-network sparse allreduce on the network "
        "simulator with level-by-level densification along a planned "
        "aggregation tree",
    ),
)
def _plan_flare_sparse(request: CollectiveRequest) -> PlannedExecution:
    source = _TopologySource(request)
    p = request.params
    schedule = sparse_tree(
        source.plan_tree(request),
        request.total_elements,
        bucket_span=p.get("bucket_span", 512),
        nnz_per_bucket=p.get("nnz_per_bucket", 1.0),
        n_chunks=p.get("n_chunks"),
        agg_latency_ns=SPARSE_AGG_NS_PER_CHUNK,
        level_bytes=p.get("level_bytes"),
    )
    return _plan_tree(source, schedule, request.op)


# ----------------------------------------------------------------------
# Switch-level PsPIN drivers
# ----------------------------------------------------------------------
def _pick(overrides: dict, keys: tuple[str, ...]) -> dict:
    return {k: overrides[k] for k in keys if k in overrides}


def _switch_plan(
    name: str,
    request: CollectiveRequest,
    plan_kwargs: dict,
    result_of,
    schedule_of,
    data_of=None,
    exec_keys: tuple[str, ...] = ("seed", "jitter", "cold_start", "verify"),
) -> PlannedExecution:
    """The plan of switch-level driver ``name``.

    Standalone runs (``plan.execute``) are one PsPIN switch aggregating
    every host, planned once by ``plan_switch_allreduce(nbytes,
    children=n_hosts, **plan_kwargs)`` and executed on
    ``data_of(payloads)`` (the payloads themselves by default) with the
    ``exec_keys`` overrides; ``result_of(r, time_ns)`` wraps its result.
    On a fabric the issuer runs ``schedule_of(tree, splan)`` over the
    planned aggregation tree, each switch charging per chunk the
    processing tail (makespan minus last arrival: the link
    serialization already charges the arrivals) of a one-chunk PsPIN
    run of the same design at its fan-in and the largest chunk its
    children send it; that run's counters are the switch's.  Tails are
    priced on first issue and cached; a run that does not fit raises
    :class:`~repro.core.allreduce.SwitchInfeasibleError` at issue.  A
    request the wiring cannot place has no tree: it still runs
    standalone, and issuing it raises :class:`CapabilityError`.
    """
    splan = plan_switch_allreduce(
        int(request.nbytes), children=request.n_hosts, **plan_kwargs
    )
    clock_ghz = splan.switch_cfg.cost_model.clock_ghz
    # Every tree switch runs the aggregation design planned for the
    # whole vector, not the one its chunk size would select.
    chunk_kwargs = (
        {**plan_kwargs, "algorithm": splan.design.label}
        if isinstance(splan.design, DenseDesign)
        else plan_kwargs
    )

    def runner(payloads, overrides) -> CollectiveResult:
        r = splan.execute(
            data=payloads if data_of is None else data_of(payloads),
            **_pick(overrides, exec_keys),
        )
        return result_of(r, r.makespan_cycles / clock_ghz)

    def price(fan_in: int, chunk_bytes: int) -> tuple:
        r = plan_switch_allreduce(chunk_bytes, children=fan_in, **chunk_kwargs).execute()
        return (r.makespan_cycles - r.last_arrival_cycles) / clock_ghz, r.provenance

    setup = splan.describe()
    try:
        source = _TopologySource(request)
        tree = source.plan_tree(request)
    except (CapabilityError, ValueError) as exc:
        reason = f"{name} has no aggregation tree here: {exc}"

        def unplaceable(ctx: IssueContext, payloads, overrides) -> None:
            raise CapabilityError(reason)

        return PlannedExecution(unplaceable, setup, standalone=runner)
    schedule = schedule_of(tree, splan)
    tree_plan = _plan_tree(source, schedule, request.op)

    def inputs(switch) -> tuple[int, int]:
        chunks = [schedule.up_chunk[kid] for kid in tree.children_of.get(switch, ())]
        if tree.hosts_of.get(switch):
            chunks.append(schedule.host_chunk)
        return tree.fan_in(switch), max(chunks)

    #: (fan-in, chunk bytes) -> (processing tail in ns, counters)
    tails: dict = {}

    def tail(switch) -> tuple:
        key = inputs(switch)
        if key not in tails:
            tails[key] = price(*key)
        return tails[key]

    def issuer(ctx: IssueContext, payloads, overrides) -> None:
        priced = {s: tail(s) for s in tree.switches()}
        schedule.agg_latency_ns = {s: ns for s, (ns, _) in priced.items()}
        finish = ctx.finish

        def settle(result: CollectiveResult) -> None:
            result.extra["switch_counters"] = {
                s: counters for s, (_, counters) in priced.items() if counters
            }
            finish(result)

        tree_plan.issuer(dc_replace(ctx, finish=settle), payloads, overrides)

    return PlannedExecution(
        issuer, {**setup, **tree_plan.setup}, standalone=runner
    )


def _switch_payload_rejects(
    request: CollectiveRequest, payloads
) -> Optional[str]:
    """Can the PsPIN switch path execute these concrete payloads?

    The switch streams whole packets, so per-host data must divide
    into ``elements_per_packet`` chunks and use a dtype the cost model
    prices.  Auto selection falls through to a host-based executing
    algorithm when this rejects.
    """
    try:
        dt = get_dtype(request.dtype)
    except ValueError as exc:
        return str(exc)
    packet_bytes = request.params.get("packet_bytes", 1024)
    epp = max(1, packet_bytes // dt.size_bytes)
    arr = np.asarray(payloads)
    if arr.ndim == 3:
        if arr.shape[2] != epp:
            return (
                f"payload packets carry {arr.shape[2]} elements; switch "
                f"packets of {packet_bytes} B {request.dtype} carry {epp}"
            )
        return None
    per_host = arr[0].size
    if per_host % epp:
        return (
            f"per-host payload of {per_host} elements does not divide "
            f"into whole {epp}-element packets"
        )
    return None


@register_algorithm(
    "flare_switch",
    payload_rejects=_switch_payload_rejects,
    caps=AlgorithmCaps(
        dense=True,
        in_network=True,
        reproducible=True,
        ops=("*",),
        custom_ops=True,
        min_hosts=1,
        priority=50,
        description="switch-level dense allreduce on the PsPIN behavioral "
        "model (paper Secs. 4-6; reproducible via tree aggregation, any "
        "operator via sPIN handlers); on a fabric, a tree schedule whose "
        "switches are priced by that model",
    ),
)
def _plan_flare_switch(request: CollectiveRequest) -> PlannedExecution:
    """On a fabric, the ``flare_dense`` tree with 1 MiB chunks, each
    switch priced by the single-switch simulation (:func:`_switch_plan`)."""
    p = request.params

    def result_of(r, time_ns: float) -> CollectiveResult:
        return CollectiveResult(
            name=f"Flare switch ({r.algorithm})",
            n_hosts=request.n_hosts,
            vector_bytes=float(r.data_bytes),
            time_ns=time_ns,
            # One switch: ingress is the only wire segment modeled.
            traffic_bytes_hops=int(r.data_bytes) * request.n_hosts,
            sent_bytes_per_host=int(r.data_bytes),
            extra={
                "bandwidth_tbps": r.bandwidth_tbps,
                "elements_per_second": r.elements_per_second,
                "makespan_cycles": r.makespan_cycles,
                "outputs": r.outputs,
            },
            raw=r,
        )

    def schedule_of(tree, splan) -> TreeSchedule:
        return dense_tree(
            tree,
            request.nbytes,
            chunk_bytes=TREE_CHUNK_BYTES,
            agg_latency_ns=0.0,           # priced on first issue
            label=f"Flare switch ({splan.design.label})",
        )

    plan_kwargs = dict(
        algorithm=p.get("aggregation"),
        dtype=request.dtype,
        n_clusters=p.get("n_clusters", 4),
        cores_per_cluster=p.get("cores_per_cluster", 8),
        subset_size=p.get("subset_size"),
        scheduler=p.get("scheduler", "hierarchical"),
        staggered=p.get("staggered", True),
        reproducible=request.reproducible,
        op=request.op,
        cost_model=p.get("cost_model"),
        packet_bytes=p.get("packet_bytes", 1024),
    )
    return _switch_plan("flare_switch", request, plan_kwargs, result_of, schedule_of)


@register_algorithm(
    "flare_switch_sparse",
    payload_rejects=_simulation_only,
    caps=AlgorithmCaps(
        dense=False,
        sparse=True,
        in_network=True,
        ops=("sum",),
        min_hosts=1,
        priority=35,
        description="switch-level sparse allreduce on the PsPIN behavioral "
        "model (paper Sec. 7; hash or array storage, spill accounting)",
    ),
)
def _plan_flare_switch_sparse(request: CollectiveRequest) -> PlannedExecution:
    """On a fabric, a ``flare_sparse`` tree whose hosts send the
    request's sparsified ``nbytes`` (a dense vector of ``nbytes / (8 *
    density)`` elements, ``density`` of each 512-element bucket
    non-zero), each switch priced by the single-switch simulation
    (:func:`_switch_plan`)."""
    p = request.params
    storage = p.get("storage", "hash")
    label = f"Flare switch sparse ({storage})"

    def result_of(r, time_ns: float) -> CollectiveResult:
        return CollectiveResult(
            name=label,
            n_hosts=request.n_hosts,
            vector_bytes=float(request.nbytes) / request.density
            * DENSE_ELEMENT_BYTES / 8.0,
            time_ns=time_ns,
            traffic_bytes_hops=int(
                r.ingress_payload_bytes + r.egress_payload_bytes
            ),
            sent_bytes_per_host=int(request.nbytes),
            extra={
                "bandwidth_tbps": r.bandwidth_tbps,
                "feasible": True,
                "block_memory_bytes": r.block_memory_bytes,
                "extra_traffic_pct": r.extra_traffic_pct,
                "fast_path_used": r.fast_path_used,
            },
            raw=r,
        )

    def schedule_of(tree, splan) -> TreeSchedule:
        return sparse_tree(
            tree,
            request.nbytes / (SPARSE_ELEMENT_BYTES * request.density),
            bucket_span=512,
            nnz_per_bucket=512 * request.density,
            agg_latency_ns=0.0,           # priced on first issue
            label=label,
        )

    def data_of(payloads):
        _reject_payloads("flare_switch_sparse", payloads)
        return p.get("workload")

    plan_kwargs = dict(
        density=request.density,
        storage=storage,
        n_clusters=p.get("n_clusters", 4),
        cores_per_cluster=p.get("cores_per_cluster", 8),
        dtype=request.dtype,
        correlation=p.get("correlation", 0.0),
        packet_bytes=p.get("packet_bytes", 1024),
        hash_slots_factor=p.get("hash_slots_factor", 4.0),
        cost_model=p.get("cost_model"),
    )
    # Standalone it stays cold: ``cold_start`` is not one of its knobs.
    return _switch_plan(
        "flare_switch_sparse", request, plan_kwargs, result_of, schedule_of,
        data_of=data_of, exec_keys=("seed", "jitter", "verify"),
    )
