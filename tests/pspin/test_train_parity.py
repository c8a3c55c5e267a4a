"""Parity suite: packet-train fast path vs per-packet DES.

The fast path's contract is *exactness*: identical makespans, bitwise
payloads, and matching telemetry against the event-driven path on every
configuration it engages for — and transparent fallback (with identical
results, trivially) on the configurations it must decline.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.allreduce as allreduce
from repro.core.allreduce import plan_switch_allreduce
from repro.core.handler_base import HandlerConfig
from repro.core.multi_buffer import MultiBufferHandler
from repro.core.ops import ReductionOp
from repro.core.tree_buffer import TreeAggregationHandler
from repro.provenance.collect import collect_switch
from repro.pspin.switch import PsPINSwitch, SwitchConfig
from repro.pspin.train import PacketTrain


def run_pair(
    algo,
    size,
    dtype="int32",
    children=16,
    n_clusters=2,
    seed=0,
    cold_start=True,
    op="sum",
    reproducible=False,
    scheduler="hierarchical",
    subset_size=None,
    jitter=1.0,
    data=None,
):
    """Execute the same planned allreduce through both tiers."""
    results = []
    for env in ("1", "0"):
        plan = plan_switch_allreduce(
            size,
            children=children,
            algorithm=algo,
            dtype=dtype,
            n_clusters=n_clusters,
            op=op,
            reproducible=reproducible,
            scheduler=scheduler,
            subset_size=subset_size,
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_FASTPATH", env)
            results.append(
                plan.execute(data, seed=seed, cold_start=cold_start, jitter=jitter)
            )
    return results


def assert_parity(fast, slow, expect_fast=True):
    assert fast.fast_path_used is expect_fast
    assert slow.fast_path_used is False
    # Exact makespan.
    assert fast.makespan_cycles == slow.makespan_cycles
    # Bitwise payloads.
    assert set(fast.outputs) == set(slow.outputs)
    for block_id, payload in slow.outputs.items():
        got = fast.outputs[block_id]
        assert got.dtype == payload.dtype
        assert np.array_equal(got, payload)
    # Telemetry: integer counters exact; cycle accumulators to float
    # addition-order tolerance (the fast path sums per subset).
    assert fast.blocks_completed == slow.blocks_completed
    assert fast.icache_fills == slow.icache_fills
    assert fast.deferred_arrivals == slow.deferred_arrivals
    assert fast.peak_input_buffer_bytes == slow.peak_input_buffer_bytes
    assert fast.peak_working_memory_bytes == slow.peak_working_memory_bytes
    assert math.isclose(
        fast.contention_wait_cycles,
        slow.contention_wait_cycles,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )
    assert fast.sim_bandwidth_tbps == slow.sim_bandwidth_tbps


def hpu_state(switch):
    """Which core ran what: each HPU's ``busy_until``, ``handlers_run``
    and ``busy_cycles``."""
    return [
        (hpu.busy_until, hpu.handlers_run, hpu.busy_cycles)
        for cluster in switch.clusters
        for hpu in cluster.hpus
    ]


@pytest.fixture
def switches(monkeypatch):
    """Every switch a plan executes on, in creation order."""
    made = []

    def capture(cfg):
        made.append(PsPINSwitch(cfg))
        return made[-1]

    monkeypatch.setattr(allreduce, "PsPINSwitch", capture)
    return made


@pytest.mark.parametrize("algo", ["single", "multi(4)", "tree"])
@pytest.mark.parametrize("dtype", ["int32", "float32", "int8"])
def test_dense_parity(algo, dtype):
    fast, slow = run_pair(algo, "16KiB", dtype=dtype)
    assert_parity(fast, slow)


@pytest.mark.parametrize("algo", ["single", "multi(2)", "tree"])
def test_parity_warm_start(algo):
    fast, slow = run_pair(algo, "8KiB", cold_start=False)
    assert_parity(fast, slow)
    assert fast.icache_fills == 0


@pytest.mark.parametrize("op", ["min", "max", "prod"])
def test_parity_other_operators(op):
    fast, slow = run_pair("single", "8KiB", dtype="int16", op=op)
    assert_parity(fast, slow)


def _saturating_add(acc, values):
    wide = acc.astype(np.int64) + values
    acc[...] = np.clip(wide, np.iinfo(acc.dtype).min, np.iinfo(acc.dtype).max)


#: A custom operator that reuses a builtin's name.
SATURATING_SUM = ReductionOp("sum", _saturating_add)


@pytest.mark.parametrize("algo", ["single", "multi(4)", "tree"])
def test_custom_op_named_like_a_builtin_is_replayed(algo):
    """Builtins are told apart by identity, not name: the fast path
    must replay a custom "sum" instead of vectorizing np.add (whose
    wrapped sums would fail the integer golden check)."""
    children, elements = 16, 8 * 256
    data = np.full((children, elements), 2**28, dtype=np.int32)
    data[:, ::3] = 5
    fast, slow = run_pair(algo, elements * 4, op=SATURATING_SUM, data=data)
    assert_parity(fast, slow)
    for block in slow.outputs.values():
        assert set(np.unique(block)) == {children * 5, np.iinfo(np.int32).max}


def test_parity_float_min_replay():
    fast, slow = run_pair("multi(4)", "8KiB", dtype="float32", op="min")
    assert_parity(fast, slow)


def test_reproducible_tree_float32_bitwise():
    """F3: fp32 tree sums are bitwise stable — and the fast path's
    order-replay reproduces them bit for bit."""
    fast, slow = run_pair("tree", "16KiB", dtype="float32", reproducible=True)
    assert_parity(fast, slow)


def test_parity_without_jitter():
    fast, slow = run_pair("single", "16KiB", jitter=0.0)
    assert_parity(fast, slow)


@pytest.mark.parametrize("algo", ["single", "multi(4)", "tree"])
@pytest.mark.parametrize("size", ["16KiB", "64KiB", "128KiB"])
def test_paper_scale_parity(switches, algo, size):
    """Fig. 11's dense sweep at paper scale (64 children, 4 clusters):
    every point below the back-pressured sizes takes the fast path and
    matches the DES, down to which core ran each handler."""
    fast, slow = run_pair(algo, size, children=64, n_clusters=4)
    assert_parity(fast, slow)
    fast_switch, des_switch = switches
    assert hpu_state(fast_switch) == hpu_state(des_switch)


def test_contended_config_falls_back():
    """At sizes where the L2 input buffers back-pressure, the fast path
    must disengage — and both runs then share the per-packet path."""
    fast, slow = run_pair("single", "256KiB", children=64, n_clusters=4)
    assert slow.deferred_arrivals > 0
    assert_parity(fast, slow, expect_fast=False)


def test_tree_roots_tied_across_subsets_fall_back():
    """Blocks 2 and 3 finish at one instant in different subsets.  The
    DES emits block 3 first: its handler's chain of events began with
    an earlier dispatch.  The sweeps keep no such chain, so the fast
    path must decline rather than guess an order."""
    fast, slow = run_pair("tree", "4KiB", children=8, n_clusters=4, seed=4, jitter=0.0)
    assert_parity(fast, slow, expect_fast=False)


def test_fcfs_scheduler_falls_back():
    fast, slow = run_pair("single", "8KiB", scheduler="fcfs")
    assert_parity(fast, slow, expect_fast=False)


def test_subset_smaller_than_cluster_falls_back():
    fast, slow = run_pair("single", "8KiB", subset_size=4)
    assert_parity(fast, slow, expect_fast=False)


def test_env_kill_switch_disables_fast_path(monkeypatch):
    """``run_pair`` runs its DES side under ``REPRO_FASTPATH=0``; every
    spelling of "off" must disable the fast path."""
    plan = plan_switch_allreduce("8KiB", children=16, algorithm="single",
                                 n_clusters=2)
    for off in ("0", "false", "no"):
        monkeypatch.setenv("REPRO_FASTPATH", off)
        assert plan.execute(seed=0).fast_path_used is False


def test_busy_switch_rejects_train(monkeypatch):
    """A train injected into a switch with in-flight events must fall
    back (the fast path only models the uncontended case).  A lone
    pending event counts whichever part of the event queue holds it:
    the priority-0 heap or the priority-1 same-instant buckets."""
    import repro.core.allreduce as allreduce
    from repro.pspin.switch import PsPINSwitch

    plan = plan_switch_allreduce("4KiB", children=8, algorithm="single",
                                 n_clusters=1)
    assert plan.execute(seed=0).fast_path_used     # pristine: engages
    for priority in (0, 1):
        def busy_switch(cfg, priority=priority):
            switch = PsPINSwitch(cfg)
            switch.sim.schedule_at(0.0, lambda: None, priority=priority)
            return switch

        monkeypatch.setattr(allreduce, "PsPINSwitch", busy_switch)
        assert plan.execute(seed=0).fast_path_used is False, priority


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(
    algo=st.sampled_from(["single", "multi(2)", "multi(4)", "tree"]),
    dtype=st.sampled_from(["int32", "float32"]),
    children=st.sampled_from([4, 8, 16]),
    size_kib=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=5),
    jitter=st.sampled_from([0.0, 0.5, 1.0]),
    n_clusters=st.sampled_from([1, 2, 4]),
)
def test_property_random_configs_parity(
    algo, dtype, children, size_kib, seed, jitter, n_clusters
):
    """Randomly toggling the fast path never changes the simulation.
    The shared-buffer designs run on up to four subsets; the tree stays
    on one, since roots tied across subsets decline by design."""
    fast, slow = run_pair(
        algo,
        size_kib * 1024,
        dtype=dtype,
        children=children,
        n_clusters=1 if algo == "tree" else n_clusters,
        seed=seed,
        jitter=jitter,
    )
    assert fast.fast_path_used is True
    assert fast.makespan_cycles == slow.makespan_cycles
    assert set(fast.outputs) == set(slow.outputs)
    for block_id, payload in slow.outputs.items():
        assert np.array_equal(fast.outputs[block_id], payload)
    assert fast.blocks_completed == slow.blocks_completed


# ----------------------------------------------------------------------
# Hand-built trains: the edges of the FIFO dispatch rule
# ----------------------------------------------------------------------
CHILDREN = 4


def make_handler(algo):
    config = HandlerConfig(
        allreduce_id=1,
        n_children=CHILDREN,
        dtype_name="int32",
        multicast_ports=list(range(CHILDREN)),
    )
    if algo == "tree":
        return TreeAggregationHandler(config)
    return MultiBufferHandler(config, 2)


def make_train(rows):
    """A train of ``(time, block, port)`` rows over blocks 0-3, stably
    sorted by time, with fixed 16-element int32 payloads (integer costs
    keep every cycle exact)."""
    rows = sorted(rows, key=lambda row: row[0])
    times, blocks, ports = (list(col) for col in zip(*rows))
    data = np.random.default_rng(7).integers(
        -1000, 1000, size=(CHILDREN, 4, 16), dtype=np.int32
    )
    return PacketTrain(1, times, blocks, ports, data)


class CompletionLog(PsPINSwitch):
    """A switch that logs the instant of every DES completion event."""

    def __init__(self, config):
        super().__init__(config)
        self.completions = []

    def _on_completion(self, hpu, packet, result, buffer_released):
        self.completions.append(self.sim.now)
        super()._on_completion(hpu, packet, result, buffer_released)


def run_train(algo, train, fast):
    """A two-core switch running one handler on ``train``."""
    switch = CompletionLog(SwitchConfig(n_clusters=1, cores_per_cluster=2))
    handler = make_handler(algo)
    switch.register_handler(handler)
    switch.install_allreduce(1, handler.name)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fast else "0")
        used = switch.inject_train(train)
    return switch, handler, used, switch.run()


def completion_instants(algo, rows):
    """The distinct instants of the completion events of a DES run of
    ``rows``; a core frees at each of them, or its handler extends."""
    switch, _handler, _used, _makespan = run_train(algo, make_train(rows), fast=False)
    return sorted(set(switch.completions))


def egress_rows(switch):
    return [(t, p.block_id, p.port, p.payload.tobytes()) for t, p in switch.egress]


@pytest.mark.parametrize("algo", ["multi(2)", "tree"])
def test_arrivals_at_core_free_instants(algo):
    """Packets land exactly where handlers complete.  A completion runs
    before an arrival at its instant, a packet that arrived strictly
    earlier takes the freed core, and an arrival takes the free core
    with the lowest index."""
    # Two cores, eight packets at t = 0: six wait.  Block 3 arrives at
    # completion instants while older packets still wait.
    rows = [(0.0, block, port) for block in (0, 1) for port in range(CHILDREN)]
    during = completion_instants(algo, rows)
    rows += [(t, 3, port) for port, t in enumerate(during[1:3] * 2)]
    # Block 2 on the idle switch: core 0 takes port 0 and core 1, a
    # cycle later, port 1, so core 1 ends while core 0 is already free.
    end = completion_instants(algo, rows)[-1]
    rows += [(end + 100.0, 2, 0), (end + 101.0, 2, 1)]
    last = completion_instants(algo, rows)[-1]
    rows += [(last, 2, 2), (last, 2, 3)]
    fast_sw, fast_handler, used, fast_makespan = run_train(algo, make_train(rows), True)
    des_sw, des_handler, des_used, des_makespan = run_train(algo, make_train(rows), False)
    assert used and not des_used
    assert fast_makespan == des_makespan
    assert egress_rows(fast_sw) == egress_rows(des_sw)
    assert collect_switch(fast_sw) == collect_switch(des_sw)
    assert hpu_state(fast_sw) == hpu_state(des_sw)
    assert fast_handler.blocks_completed == des_handler.blocks_completed == 4


@pytest.mark.parametrize("algo", ["multi(2)", "tree"])
def test_repeated_block_port_runs_on_the_des(algo):
    """A retransmitted (block, port) row.  The dense kernels keep no
    Sec. 4.1 bitmap, so the train declines the fast path; the DES drops
    the copy and still reduces every block exactly."""
    pairs = [(block, port) for block in range(4) for port in range(CHILDREN)]
    rows = [(10.0 * i, block, port) for i, (block, port) in enumerate(pairs)]
    rows.append((5.0, 0, 0))             # block 0, port 0 again, in flight
    train = make_train(rows)
    switch, handler, used, _makespan = run_train(algo, train, fast=True)
    assert used is False
    assert handler.duplicates_dropped == 1
    outputs = switch.block_outputs()
    assert sorted(outputs) == [0, 1, 2, 3]
    for block, payload in outputs.items():
        assert np.array_equal(payload, train.data[:, block].sum(axis=0, dtype=np.int32))
