"""Parity suite: the sparse packet-train fast path vs the per-packet DES.

The sparse kernel's contract is the dense one's: identical makespans,
bitwise outputs and egress, matching wire and spill accounting on every
configuration it engages for — and a transparent fallback (identical
results, trivially) on the ones it must decline.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.allreduce import SwitchInfeasibleError, plan_switch_allreduce
from repro.core.staggered import arrival_arrays
from repro.pspin.packets import HEADER_BYTES
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.sparse.fastpath import (
    SparseEgressRecord,
    SparsePacketTrain,
    SparseTrainKernel,
    _group,
)
from repro.sparse.formats import (
    SparseBlock,
    SparseWorkload,
    make_sparse_workload,
    packetize_block,
)
from repro.sparse.handlers import SparseAggregationHandler, SparseHandlerConfig

EPP = 128   # elements per 1 KiB sparse packet


def run_pair(monkeypatch, seed=0, jitter=1.0, verify=True, workload=None, **plan):
    """The same sparse allreduce on the fast path and on the DES; a run
    that does not fit the switch gives its :class:`SwitchInfeasibleError`."""
    plan = plan_switch_allreduce(**plan)
    results = []
    for env in ("1", "0"):
        monkeypatch.setenv("REPRO_FASTPATH", env)
        try:
            results.append(plan.execute(workload, seed=seed, jitter=jitter, verify=verify))
        except SwitchInfeasibleError as exc:
            results.append(exc)
    return results


def assert_parity(fast, slow, expect_fast=True):
    assert fast.fast_path_used is expect_fast
    assert slow.fast_path_used is False
    if isinstance(slow, SwitchInfeasibleError):
        assert isinstance(fast, SwitchInfeasibleError)
        assert fast.reason == slow.reason
        assert fast.block_memory_bytes == slow.block_memory_bytes
        return
    assert not isinstance(fast, SwitchInfeasibleError)
    assert fast.makespan_cycles == slow.makespan_cycles
    assert set(fast.outputs) == set(slow.outputs)
    for block_id, payload in slow.outputs.items():
        got = fast.outputs[block_id]
        assert got.dtype == payload.dtype
        assert np.array_equal(got, payload)
    assert fast.ingress_payload_bytes == slow.ingress_payload_bytes
    assert fast.egress_payload_bytes == slow.egress_payload_bytes
    assert fast.ideal_egress_bytes == slow.ideal_egress_bytes
    assert fast.spilled_bytes == slow.spilled_bytes
    assert fast.extra_traffic_pct == slow.extra_traffic_pct
    assert fast.blocks_completed == slow.blocks_completed
    assert fast.block_memory_bytes == slow.block_memory_bytes
    # The fast path sums waits per subset: float addition-order noise.
    assert math.isclose(
        fast.contention_wait_cycles,
        slow.contention_wait_cycles,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )


@pytest.mark.parametrize("children,n_clusters", [(8, 1), (16, 2), (64, 4)])
@pytest.mark.parametrize("correlation", [0.0, 0.7])
@pytest.mark.parametrize("density", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("storage", ["hash", "array"])
def test_parity_matrix(monkeypatch, storage, density, correlation, children, n_clusters):
    for jitter in (0.0, 1.0):
        for dtype in ("float32", "int32"):
            fast, slow = run_pair(
                monkeypatch,
                data_bytes="4KiB",
                density=density,
                storage=storage,
                children=children,
                n_clusters=n_clusters,
                correlation=correlation,
                jitter=jitter,
                dtype=dtype,
                seed=3,
            )
            assert_parity(fast, slow)


def noisy_workload(children, n_blocks, density, seed, correlation=0.0):
    """A generated workload with non-integer float32 values, so every
    float add order shows in the bits."""
    wl = make_sparse_workload(
        children, n_blocks, EPP, density, seed=seed, correlation=correlation
    )
    rng = np.random.default_rng(seed)
    blocks = [
        [
            SparseBlock(
                blk.block_id,
                blk.span,
                blk.indices,
                rng.standard_normal(blk.nnz).astype(np.float32),
            )
            for blk in host
        ]
        for host in wl.blocks
    ]
    return SparseWorkload(
        blocks, wl.n_hosts, wl.n_blocks, wl.block_span, wl.density, wl.dtype
    )


@pytest.mark.parametrize("storage", ["hash", "array"])
@pytest.mark.parametrize("density", [0.1, 0.5])
def test_float_add_order_is_bitwise(monkeypatch, storage, density):
    workload = noisy_workload(16, 8, density, seed=4, correlation=0.7)
    fast, slow = run_pair(
        monkeypatch, data_bytes="8KiB", density=density, storage=storage,
        children=16, n_clusters=2, workload=workload, seed=4, verify=False,
    )
    assert_parity(fast, slow)


@pytest.mark.parametrize("jitter", [0.0, 1.0])
def test_train_packets_are_packetize_block_shards(jitter):
    """The vectorized packetization against the per-block reference:
    :func:`packetize_block` shards along :func:`arrival_arrays`, shard
    ``i`` at ``time + i * delta``, in the event engine's (time,
    injection order) pop order.  Small packets give multi-shard and
    empty blocks."""
    epp, delta = 2, 2.5
    workload = make_sparse_workload(6, 5, epp, 0.2, seed=8, correlation=0.5)
    times, hosts, blocks = arrival_arrays(6, 5, delta, jitter=jitter, seed=9)
    reference = [
        (t + i * delta, h, chunk)
        for t, h, b in zip(times.tolist(), hosts.tolist(), blocks.tolist())
        for i, chunk in enumerate(packetize_block(workload.blocks[h][b], epp))
    ]
    reference.sort(key=lambda entry: entry[0])    # stable: injection order
    assert any(chunk.shard_count > 1 for _t, _h, chunk in reference)
    assert any(chunk.n_elements == 0 for _t, _h, chunk in reference)
    train = SparsePacketTrain.from_workload(
        1, workload, times, hosts, blocks, epp, delta
    )
    assert train.times.tolist() == [t for t, _h, _c in reference]
    assert len(train.packets()) == len(reference)
    for pkt, wire, (_t, host, chunk) in zip(
        train.packets(), train.wire_bytes.tolist(), reference
    ):
        assert (pkt.block_id, pkt.port, pkt.last_of_block, pkt.shard_count) == (
            chunk.block_id, host, chunk.last_of_block, chunk.shard_count
        )
        assert pkt.indices.dtype == chunk.indices.dtype
        assert pkt.payload.dtype == chunk.values.dtype
        assert np.array_equal(pkt.indices, chunk.indices)
        assert np.array_equal(pkt.payload, chunk.values)
        assert wire == pkt.wire_bytes == chunk.wire_bytes + HEADER_BYTES


# ----------------------------------------------------------------------
# Switch level: one sparse train into two switches
# ----------------------------------------------------------------------
def switch_pair(
    storage="hash",
    density=0.1,
    children=8,
    n_clusters=2,
    n_blocks=4,
    jitter=1.0,
    seed=5,
    workload=None,
    l2_bytes=None,
    handler_children=None,
    handler_kwargs=None,
    spill_capacity=None,
    read_egress=None,
):
    """Inject one train into a fast-path switch and a DES switch; returns
    ``[(used_fast_path, makespan_or_error, switch, handler), ...]``.

    ``spill_capacity`` overrides the hash storage's (which is one packet
    of elements otherwise); ``read_egress(switch)`` runs after each
    run, before anything reads the egress."""
    if workload is None:
        workload = noisy_workload(children, n_blocks, density, seed)
    runs = []
    for env in ("1", "0"):
        cfg = SwitchConfig(n_clusters=n_clusters)
        delta = cfg.packet_interarrival_cycles(1024) * 64 / n_clusters
        times, hosts, blocks = arrival_arrays(
            children, workload.n_blocks, delta, jitter=jitter, seed=seed + 1
        )
        train = SparsePacketTrain.from_workload(
            1, workload, times, hosts, blocks, EPP, delta
        )
        switch = PsPINSwitch(cfg)
        if l2_bytes is not None:
            switch.memories.l2_packet.capacity_bytes = l2_bytes
        handler = SparseAggregationHandler(SparseHandlerConfig(
            1, handler_children or children, storage=storage, density=density,
            **(handler_kwargs or {}),
        ))
        if spill_capacity is not None:
            handler._make_storage = _with_spill_capacity(
                handler._make_storage, spill_capacity
            )
        switch.register_handler(handler)
        switch.install_allreduce(1, handler.name)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_FASTPATH", env)
            used = switch.inject_train(train)
        try:
            makespan = switch.run()
        except MemoryError as exc:
            makespan = str(exc)
        if read_egress is not None:
            read_egress(switch)
        runs.append((used, makespan, switch, handler))
    return runs


def _with_spill_capacity(make_storage, capacity):
    def make():
        storage = make_storage()
        storage.spill_capacity = capacity
        return storage

    return make


def assert_switch_parity(runs, expect_fast=True):
    (used_f, ms_f, sw_f, h_f), (used_s, ms_s, sw_s, h_s) = runs
    assert used_f is expect_fast and used_s is False
    assert ms_f == ms_s
    assert len(sw_f.egress) == len(sw_s.egress)
    for (t_f, p_f), (t_s, p_s) in zip(sw_f.egress, sw_s.egress):
        assert t_f == t_s
        assert (p_f.block_id, p_f.port, p_f.last_of_block, p_f.shard_count) == (
            p_s.block_id, p_s.port, p_s.last_of_block, p_s.shard_count
        )
        assert p_f.indices.dtype == p_s.indices.dtype
        assert p_f.payload.dtype == p_s.payload.dtype
        assert np.array_equal(p_f.indices, p_s.indices)
        assert np.array_equal(p_f.payload, p_s.payload)
    tel_f, tel_s = sw_f.telemetry, sw_s.telemetry
    for name in ("packets_in", "bytes_in", "packets_out", "bytes_out",
                 "handler_invocations", "icache_fills", "deferred_arrivals"):
        assert getattr(tel_f, name).value == getattr(tel_s, name).value, name
    assert tel_f.working_memory_bytes.peak == tel_s.working_memory_bytes.peak
    l2_f, l2_s = sw_f.memories.l2_packet, sw_s.memories.l2_packet
    assert (l2_f.used_bytes, l2_f.peak_bytes) == (l2_s.used_bytes, l2_s.peak_bytes)
    for cl_f, cl_s in zip(sw_f.clusters, sw_s.clusters):
        assert (cl_f.l1.used_bytes, cl_f.l1.peak_bytes) == (
            cl_s.l1.used_bytes, cl_s.l1.peak_bytes
        )
        for hpu_f, hpu_s in zip(cl_f.hpus, cl_s.hpus):
            assert hpu_f.busy_until == hpu_s.busy_until
            assert hpu_f.handlers_run == hpu_s.handlers_run
    assert (h_f.blocks_completed, h_f.spilled_bytes_total, h_f.peak_block_memory) == (
        h_s.blocks_completed, h_s.spilled_bytes_total, h_s.peak_block_memory
    )
    assert h_f._budget_used == h_s._budget_used


@pytest.mark.parametrize("storage", ["hash", "array"])
@pytest.mark.parametrize("jitter", [0.0, 1.0])
def test_switch_egress_in_order(storage, jitter):
    assert_switch_parity(
        switch_pair(storage, density=0.5, children=16, n_clusters=4,
                    n_blocks=8, jitter=jitter)
    )


@pytest.mark.parametrize("children,n_clusters", [(8, 4), (16, 4), (16, 16)])
def test_switch_egress_ties_follow_dispatch_order(children, n_clusters):
    """Full, identical blocks without jitter finish at the same instants
    on several clusters: the egress order then follows the DES's
    dispatch order (queued packets first, ascending subset), not the
    arrival order."""
    workload = make_sparse_workload(children, 32, EPP, 1.0, seed=2)
    assert_switch_parity(
        switch_pair("hash", density=1.0, children=children,
                    n_clusters=n_clusters, jitter=0.0, seed=2, workload=workload)
    )


# ----------------------------------------------------------------------
# The flat sparse egress record
# ----------------------------------------------------------------------
def _record_kinds(kinds):
    """``read_egress`` hook: what each switch holds before its egress is
    read (the fast path's one record, or None on the DES)."""
    def read(switch):
        record = switch.sole_egress_record()
        kinds.append(type(record))
    return read


def test_cancelled_array_block_expands_to_one_empty_packet():
    """Two children whose values cancel on even blocks: those blocks
    drain nothing, and the handler still emits one empty final packet."""
    span, rng = 1280, np.random.default_rng(3)
    draws = [
        (np.sort(rng.choice(span, 40, replace=False)).astype(np.int32),
         rng.integers(1, 7, 40).astype(np.float32))
        for _ in range(6)
    ]
    # Host 1 negates host 0 on even blocks and sends its own on odd ones.
    blocks = [
        [SparseBlock(b, span, *draws[b]) for b in range(4)],
        [
            SparseBlock(b, span, draws[b][0], -draws[b][1]) if b % 2 == 0
            else SparseBlock(b, span, *draws[4 + b // 2])
            for b in range(4)
        ],
    ]
    workload = SparseWorkload(blocks, 2, 4, span, 0.1, "float32")
    kinds = []
    runs = switch_pair("array", density=0.1, children=2, n_clusters=2,
                       workload=workload, read_egress=_record_kinds(kinds))
    assert kinds == [SparseEgressRecord, type(None)]
    empty = [p for _t, p in runs[0][2].egress if len(p.indices) == 0]
    assert sorted(p.block_id for p in empty) == [0, 2]
    for pkt in empty:
        assert (pkt.last_of_block, pkt.shard_count) == (True, 1)
        assert pkt.indices.dtype == np.int32 and pkt.payload.dtype == np.float32
    assert_switch_parity(runs)


def test_flush_wider_than_a_packet_splits_in_two():
    """A 128-element spill buffer behind 127-element egress packets:
    every flush leaves as a 127-element shard and a 1-element one."""
    kinds = []
    runs = switch_pair(
        "hash", density=0.5, children=8, n_clusters=2, n_blocks=4,
        handler_kwargs={"packet_bytes": 1016, "hash_slots_factor": 1},
        spill_capacity=128, read_egress=_record_kinds(kinds),
    )
    assert kinds == [SparseEgressRecord, type(None)]
    handler = runs[0][3]
    assert handler.config.elements_per_packet == 127
    egress = [p for _t, p in runs[0][2].egress]
    pairs = [
        (len(a.indices), len(b.indices))
        for a, b in zip(egress, egress[1:])
        if a.shard_count == 2 and not a.last_of_block
    ]
    assert pairs.count((127, 1)) >= 4
    assert_switch_parity(runs)


@pytest.mark.parametrize("storage", ["hash", "array"])
def test_driver_reads_the_record_without_expanding(monkeypatch, storage):
    def no_expand(self):
        raise AssertionError("sparse egress record expanded")

    monkeypatch.setattr(SparseEgressRecord, "expand", no_expand)
    r = plan_switch_allreduce("8KiB", density=0.1, storage=storage, children=16,
                              n_clusters=2).execute(seed=2)
    assert r.fast_path_used
    assert r.egress_payload_bytes > 0


@settings(max_examples=80, deadline=None)
@given(
    case=st.integers(1, 70_000).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.lists(st.integers(0, bound - 1) | st.just(bound - 1), max_size=300),
        )
    ),
    dtype=st.sampled_from([np.int32, np.int64]),
)
@example(case=(1, []), dtype=np.int32)
@example(case=(508, []), dtype=np.int64)
@example(case=(1, [0]), dtype=np.int64)
@example(case=(508, [507]), dtype=np.int32)
@example(case=(12_800, [12_799, 0, 12_799, 5, 0]), dtype=np.int64)
def test_group_is_np_unique(case, dtype):
    bound, keys = case
    keys = np.array(keys, dtype=dtype)
    got = _group(keys, bound)
    want = np.unique(keys, return_index=True, return_inverse=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_large_train_below_l2_capacity_engages():
    """A train larger than the input buffers still engages when its
    occupancy fits: the lower-bound pre-sweep must not reject it."""
    runs = switch_pair("hash", children=16, n_clusters=2, n_blocks=8)
    peak = runs[0][2].memories.l2_packet.peak_bytes
    total = int(runs[0][2].telemetry.bytes_in.value)
    assert peak < total
    assert_switch_parity(
        switch_pair("hash", children=16, n_clusters=2, n_blocks=8, l2_bytes=peak)
    )


def test_l2_back_pressure_falls_back(monkeypatch):
    """Input buffers that fill: the fast path declines — before it
    resolves a single insert — and both switches run the DES."""
    def must_not_resolve(*_args, **_kwargs):
        raise AssertionError("inserts resolved for a back-pressured train")

    monkeypatch.setattr(SparseTrainKernel, "_resolve_hash", must_not_resolve)
    runs = switch_pair("hash", children=16, n_clusters=2, n_blocks=8,
                       l2_bytes=16 * 1024)
    assert runs[1][2].telemetry.deferred_arrivals.value > 0
    assert_switch_parity(runs, expect_fast=False)


@pytest.mark.parametrize(
    "case",
    [
        {"handler_children": 9},           # a child never sends: no block completes
        # int32 payloads cast into float32 storage
        {"workload": make_sparse_workload(8, 4, EPP, 0.1, dtype="int32", seed=5)},
    ],
)
def test_switch_declines_what_it_cannot_model(case):
    runs = switch_pair("hash", **case)
    assert_switch_parity(runs, expect_fast=False)


def test_infeasible_array_declines(monkeypatch):
    fast, slow = run_pair(
        monkeypatch, data_bytes="64KiB", density=0.001, storage="array",
        children=16, n_clusters=1, seed=3,
    )
    assert isinstance(slow, SwitchInfeasibleError)
    assert "partition" in slow.reason
    assert_parity(fast, slow, expect_fast=False)


def test_backend_reports_fast_path():
    from repro.comm import Communicator

    comm = Communicator(n_hosts=8, n_clusters=1)
    result = comm.allreduce(
        "4KiB", algorithm="flare_switch_sparse", sparse=True, density=0.1
    )
    assert result.extra["fast_path_used"] is True
    assert result.raw.fast_path_used is True


# ----------------------------------------------------------------------
# Caller-supplied workloads: typed errors before any switch is built
# ----------------------------------------------------------------------
def test_workload_host_count_mismatch_raises():
    workload = make_sparse_workload(8, 4, EPP, 0.1, seed=1)
    for children in (4, 16):
        with pytest.raises(ValueError, match="hosts"):
            plan_switch_allreduce("4KiB", density=0.1, children=children).execute(workload)


def test_workload_dtype_mismatch_raises():
    workload = make_sparse_workload(8, 4, EPP, 0.1, dtype="int32", seed=1)
    with pytest.raises(ValueError, match="dtype"):
        plan_switch_allreduce("4KiB", density=0.1, children=8).execute(workload)


def test_workload_block_span_too_large_raises():
    workload = make_sparse_workload(8, 4, EPP, 0.05, seed=1)
    with pytest.raises(ValueError, match="span"):
        plan_switch_allreduce("4KiB", density=0.1, children=8).execute(workload)


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    storage=st.sampled_from(["hash", "array"]),
    density=st.sampled_from([0.02, 0.1, 0.3, 0.8]),
    correlation=st.sampled_from([0.0, 0.5, 0.9]),
    jitter=st.sampled_from([0.0, 0.5, 1.0]),
    children=st.sampled_from([2, 5, 8, 16]),
    n_clusters=st.sampled_from([1, 2, 4]),
    dtype=st.sampled_from(["float32", "int32"]),
    size_kib=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=50),
    hash_slots_factor=st.sampled_from([0.5, 1, 4]),
)
def test_property_random_configs_parity(
    storage, density, correlation, jitter, children, n_clusters, dtype, size_kib,
    seed, hash_slots_factor,
):
    """Toggling the fast path never changes a sparse run.  Small hash
    tables spill heavily, so blocks end with residual spill to merge."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        fast, slow = run_pair(
            monkeypatch, data_bytes=size_kib * 1024, density=density,
            storage=storage, children=children, n_clusters=n_clusters,
            correlation=correlation, jitter=jitter, dtype=dtype, seed=seed,
            hash_slots_factor=hash_slots_factor,
        )
    assert_parity(fast, slow, expect_fast=fast.fast_path_used)
    assert fast.fast_path_used or isinstance(fast, SwitchInfeasibleError)
