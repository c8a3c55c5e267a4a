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
it into a fresh one-tenant fabric wired by the request's
:class:`~repro.comm.wiring.Wiring`.  Each planner declares its knobs as
keyword-only parameters with defaults; ``build_plan`` binds the
request's params to them.
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
from repro.comm.registry import (
    AlgorithmCaps,
    CapabilityError,
    get_algorithm,
    register_algorithm,
)
from repro.comm.request import CollectiveRequest
from repro.comm.wiring import Wiring
from repro.core.allreduce import DenseDesign, plan_switch_allreduce
from repro.network.trees import TreePlanner
from repro.pspin.costs import get_dtype
from repro.sparse.densify import DENSE_ELEMENT_BYTES, SPARSE_ELEMENT_BYTES

#: Families the tree-schedule (in-network) algorithms can plan over —
#: everything the TreePlanner handles today.  Host-based schedules
#: accept any routable topology ("*").
TREE_PLANNABLE = ("fat-tree", "xgft", "dragonfly", "torus", "multi-rail")

#: The host exchanges' default ``sub_chunk_bytes``.
SUB_CHUNK_BYTES = 128 * 1024

#: ``flare_dense``'s default ``chunk_bytes``, and the chunk size of
#: ``flare_switch``'s tree on a fabric.
TREE_CHUNK_BYTES = 1024 * 1024

#: The sparse algorithms' default ``bucket_span`` (elements per bucket).
BUCKET_SPAN = 512

#: What every switch of a ``flare_dense`` / ``flare_sparse`` tree spends
#: aggregating one chunk.
DENSE_AGG_NS_PER_CHUNK = 2000.0
SPARSE_AGG_NS_PER_CHUNK = 4000.0


def _aggregation_tree(wiring: Wiring, tree, tree_root):
    """The aggregation tree of an in-network schedule: an explicit
    ``tree``, else a planned BFS tree rooted at ``tree_root`` (default:
    the topmost candidate, which on the fat tree is the classic
    spine-rooted embedding) over the placed hosts."""
    hosts = wiring.placement()
    if tree is not None:
        return tree
    return TreePlanner(wiring.shape).plan(root=tree_root, hosts=hosts)


# ----------------------------------------------------------------------
# Network schedules
# ----------------------------------------------------------------------
_SIMULATION_ONLY_REASON = (
    "is a timing/traffic simulation and does not reduce payload values; "
    "pass a byte size instead, or use an executing algorithm "
    "(flare_switch, rabenseifner, recursive_doubling, or ring, swing, "
    "butterfly and flare_dense when named explicitly)"
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


def _network_plan(wiring: Wiring, issue, setup: dict, tree=None) -> PlannedExecution:
    """The plan of a network schedule (over aggregation ``tree``, if any).

    ``issue(net, flow=, payloads=, on_complete=)`` starts one run in a
    fabric's simulator (a standalone ``plan.execute`` issues into a
    fresh one-tenant fabric).
    """

    def issuer(ctx: IssueContext, payloads, overrides) -> None:
        wiring.check_fabric(ctx.net)
        issue(ctx.net, flow=ctx.flow, payloads=payloads, on_complete=ctx.finish)

    return PlannedExecution(issuer, {"topology": wiring.describe(), **setup}, tree=tree)


def _plan_exchange(
    request: CollectiveRequest, algorithm: str, sub_chunk_bytes: float,
    reduce_bytes_per_ns: float = 0.0, **table_kwargs,
) -> PlannedExecution:
    """Shared planner of the host exchanges (:class:`ExchangeTable`)."""
    wiring = request.wiring
    table = ExchangeTable(
        algorithm,
        resolve_hosts(wiring.shape, wiring.placement()),
        request.nbytes,
        sub_chunk_bytes=sub_chunk_bytes,
        reduce_bytes_per_ns=reduce_bytes_per_ns,
        **table_kwargs,
    )
    return _network_plan(
        wiring, partial(table.issue, op=request.op),
        {**table.extra, "bytes_per_host": sum(table.step_bytes)},
    )


def _exchange(algorithm: str):
    """The planner of host exchange ``algorithm``; its one knob is the
    sub-chunk size its messages pipeline in."""

    def plan(request: CollectiveRequest, *, sub_chunk_bytes: float = SUB_CHUNK_BYTES):
        return _plan_exchange(request, algorithm, sub_chunk_bytes)

    return plan


def _plan_tree(wiring: Wiring, schedule: TreeSchedule, op) -> PlannedExecution:
    """Shared planner tail of the in-network tree schedules."""
    tree = schedule.tree
    return _network_plan(wiring, partial(schedule.issue, op=op), {
        **schedule.extra,
        "tree_switches": list(tree.switches()),
        "tree_links": [tuple(edge) for edge in tree.tree_links()],
        "root_fan_in": tree.fan_in(tree.root),
    }, tree)


register_algorithm(
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
)(_exchange("rabenseifner"))


register_algorithm(
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
)(_exchange("recursive_doubling"))


register_algorithm(
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
)(_exchange("ring"))


register_algorithm(
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
)(_exchange("butterfly"))


register_algorithm(
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
)(_exchange("swing"))


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
def _plan_sparcml(
    request: CollectiveRequest, *,
    sub_chunk_bytes: float = SUB_CHUNK_BYTES,
    bucket_span: int = BUCKET_SPAN,
    nnz_per_bucket: float = 1.0,
) -> PlannedExecution:
    """SSAR is the rabenseifner table with sparse message sizes.  Merging
    sparse (index, value) streams is CPU-bound in SparCML's own
    evaluation, unlike the streaming dense adds of the ring, so the
    reduce-scatter steps run at 2.5 B/ns of host reduction."""
    return _plan_exchange(
        request, "rabenseifner", sub_chunk_bytes,
        reduce_bytes_per_ns=2.5,
        step_bytes=sparcml_round_bytes(
            request.n_hosts, request.total_elements, bucket_span, nnz_per_bucket
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
def _plan_flare_dense(
    request: CollectiveRequest, *,
    chunk_bytes: float = TREE_CHUNK_BYTES,
    tree=None,
    tree_root=None,
) -> PlannedExecution:
    wiring = request.wiring
    schedule = dense_tree(
        _aggregation_tree(wiring, tree, tree_root),
        request.nbytes,
        chunk_bytes=chunk_bytes,
        agg_latency_ns=DENSE_AGG_NS_PER_CHUNK,
    )
    return _plan_tree(wiring, schedule, request.op)


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
def _plan_flare_sparse(
    request: CollectiveRequest, *,
    bucket_span: int = BUCKET_SPAN,
    nnz_per_bucket: float = 1.0,
    n_chunks=None,
    level_bytes=None,
    tree=None,
    tree_root=None,
) -> PlannedExecution:
    wiring = request.wiring
    schedule = sparse_tree(
        _aggregation_tree(wiring, tree, tree_root),
        request.total_elements,
        bucket_span=bucket_span,
        nnz_per_bucket=nnz_per_bucket,
        n_chunks=n_chunks,
        agg_latency_ns=SPARSE_AGG_NS_PER_CHUNK,
        level_bytes=level_bytes,
    )
    return _plan_tree(wiring, schedule, request.op)


# ----------------------------------------------------------------------
# Switch-level PsPIN drivers
# ----------------------------------------------------------------------
def _switch_plan(
    name: str, request: CollectiveRequest, run, schedule_of, tree, tree_root, **design
) -> PlannedExecution:
    """The plan of switch-level driver ``name``.

    Standalone runs (``plan.execute``) are one PsPIN switch aggregating
    every host, planned once by ``plan_switch_allreduce(nbytes,
    children=n_hosts, **design)`` with the request's dtype and the
    wiring's switch dimensions, and executed by ``run(splan, payloads,
    **knobs)``, whose keyword-only parameters are the knobs a
    standalone run takes.
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
    wiring = request.wiring
    plan_kwargs = dict(
        design, dtype=request.dtype,
        n_clusters=wiring.n_clusters, cores_per_cluster=wiring.cores_per_cluster,
    )
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
    runner = partial(run, splan)

    def price(fan_in: int, chunk_bytes: int) -> tuple:
        r = plan_switch_allreduce(chunk_bytes, children=fan_in, **chunk_kwargs).execute()
        return (r.makespan_cycles - r.last_arrival_cycles) / clock_ghz, r.provenance

    setup = splan.describe()
    try:
        tree = _aggregation_tree(wiring, tree, tree_root)
    except (CapabilityError, ValueError) as exc:
        reason = f"{name} has no aggregation tree here: {exc}"

        def unplaceable(ctx: IssueContext, payloads, overrides) -> None:
            raise CapabilityError(reason)

        return PlannedExecution(unplaceable, setup, standalone=runner)
    schedule = schedule_of(tree, splan)
    tree_plan = _plan_tree(wiring, schedule, request.op)

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
        issuer, {**setup, **tree_plan.setup}, standalone=runner, tree=tree
    )


def _switch_payload_rejects(
    request: CollectiveRequest, payloads
) -> Optional[str]:
    """Can the PsPIN switch path execute these concrete payloads?

    The switch streams whole packets, so per-host data must divide
    into ``elements_per_packet`` chunks and use a dtype the cost model
    prices.  Auto selection falls through to a host-based executing
    algorithm when this rejects.  A knob ``flare_switch`` does not
    declare raises, as it would when planning it.
    """
    try:
        dt = get_dtype(request.dtype)
    except ValueError as exc:
        return str(exc)
    packet_bytes = get_algorithm("flare_switch").bind(request).arguments["packet_bytes"]
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
def _plan_flare_switch(
    request: CollectiveRequest, *,
    aggregation: Optional[str] = None,
    subset_size: Optional[int] = None,
    scheduler: str = "hierarchical",
    staggered: bool = True,
    packet_bytes: int = 1024,
    cost_model=None,
    tree=None,
    tree_root=None,
) -> PlannedExecution:
    """On a fabric, the ``flare_dense`` tree with 1 MiB chunks, each
    switch priced by the single-switch simulation (:func:`_switch_plan`)."""

    def run(splan, payloads, *, seed: int = 0, jitter: float = 1.0,
            cold_start: bool = True, verify: bool = True) -> CollectiveResult:
        r = splan.execute(
            payloads, seed=seed, jitter=jitter, cold_start=cold_start, verify=verify
        )
        return CollectiveResult(
            name=f"Flare switch ({r.algorithm})",
            n_hosts=request.n_hosts,
            vector_bytes=float(r.data_bytes),
            time_ns=r.makespan_cycles / splan.switch_cfg.cost_model.clock_ghz,
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

    return _switch_plan(
        "flare_switch", request, run, schedule_of, tree, tree_root,
        algorithm=aggregation, subset_size=subset_size, scheduler=scheduler,
        staggered=staggered, reproducible=request.reproducible, op=request.op,
        cost_model=cost_model, packet_bytes=packet_bytes,
    )


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
def _plan_flare_switch_sparse(
    request: CollectiveRequest, *,
    storage: str = "hash",
    correlation: float = 0.0,
    packet_bytes: int = 1024,
    hash_slots_factor: float = 4.0,
    cost_model=None,
    workload=None,
    tree=None,
    tree_root=None,
) -> PlannedExecution:
    """On a fabric, a ``flare_sparse`` tree whose hosts send the
    request's sparsified ``nbytes`` (a dense vector of ``nbytes / (8 *
    density)`` elements, ``density`` of each 512-element bucket
    non-zero), each switch priced by the single-switch simulation
    (:func:`_switch_plan`).  Standalone, it runs ``workload`` (default:
    one generated from the run's seed) cold."""
    label = f"Flare switch sparse ({storage})"

    def run(splan, payloads, *, seed: int = 0, jitter: float = 1.0,
            verify: bool = True) -> CollectiveResult:
        if payloads is not None:      # never discard user data silently
            raise ValueError(f"algorithm 'flare_switch_sparse' {_SIMULATION_ONLY_REASON}")
        r = splan.execute(workload, seed=seed, jitter=jitter, verify=verify)
        return CollectiveResult(
            name=label,
            n_hosts=request.n_hosts,
            vector_bytes=float(request.nbytes) / request.density
            * DENSE_ELEMENT_BYTES / 8.0,
            time_ns=r.makespan_cycles / splan.switch_cfg.cost_model.clock_ghz,
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
            bucket_span=BUCKET_SPAN,
            nnz_per_bucket=BUCKET_SPAN * request.density,
            agg_latency_ns=0.0,           # priced on first issue
            label=label,
        )

    return _switch_plan(
        "flare_switch_sparse", request, run, schedule_of, tree, tree_root,
        density=request.density, storage=storage, correlation=correlation,
        packet_bytes=packet_bytes, hash_slots_factor=hash_slots_factor,
        cost_model=cost_model,
    )
