"""End-to-end switch-level allreduce integration tests (the Fig. 11
driver), at reduced scale for speed."""

import numpy as np
import pytest

from repro.core.allreduce import (
    make_dense_blocks,
    plan_switch_allreduce,
    scale_bandwidth,
)


def _switch(data_bytes, data=None, seed=0, jitter=1.0, cold_start=True, **plan):
    """Plan one switch-level dense allreduce and execute it once."""
    return plan_switch_allreduce(data_bytes, **plan).execute(
        data, seed=seed, jitter=jitter, cold_start=cold_start
    )


def test_scale_bandwidth_linear():
    assert scale_bandwidth(1.0, 4, 64) == 16.0
    assert scale_bandwidth(2.0, 2, 2) == 2.0
    with pytest.raises(ValueError):
        scale_bandwidth(1.0, 0)


def test_make_dense_blocks_shape_and_dtype():
    d = make_dense_blocks(4, 8, 16, dtype="int16", seed=1)
    assert d.shape == (4, 8, 16)
    assert d.dtype == np.int16
    # Deterministic per seed.
    np.testing.assert_array_equal(d, make_dense_blocks(4, 8, 16, dtype="int16", seed=1))


@pytest.mark.parametrize("algorithm", ["single", "multi(2)", "multi(4)", "tree"])
def test_all_algorithms_verify_against_golden(algorithm):
    r = _switch(
        "16KiB", children=8, n_clusters=2, algorithm=algorithm, seed=2
    )
    # execute() raises if verification fails; spot-check too.
    assert r.blocks_completed == r.n_blocks == 16
    assert len(r.outputs) == 16
    assert r.bandwidth_tbps > 0


@pytest.mark.parametrize("dtype", ["int32", "int16", "int8", "float32"])
def test_dtypes_supported(dtype):
    r = _switch(
        "8KiB", children=4, n_clusters=1, algorithm="tree", dtype=dtype, seed=3
    )
    assert r.dtype == dtype
    assert r.blocks_completed == r.n_blocks


def test_auto_policy_selects_by_size():
    r = _switch("4KiB", children=4, n_clusters=1, seed=4)
    assert r.algorithm == "tree"


def test_contention_hurts_single_buffer_at_small_sizes():
    """Fig. 11 left shape: tree strictly beats single for small data."""
    tree = _switch("4KiB", children=16, n_clusters=2,
                   algorithm="tree", seed=5)
    single = _switch("4KiB", children=16, n_clusters=2,
                     algorithm="single", seed=5)
    assert tree.bandwidth_tbps > single.bandwidth_tbps
    assert single.contention_wait_cycles > 0
    assert tree.contention_wait_cycles == 0


def test_staggering_reduces_contention_for_large_data():
    stag = _switch("64KiB", children=8, n_clusters=2,
                   algorithm="single", staggered=True,
                   jitter=0.0, seed=6)
    seq = _switch("64KiB", children=8, n_clusters=2,
                  algorithm="single", staggered=False,
                  jitter=0.0, seed=6)
    assert stag.contention_wait_cycles < seq.contention_wait_cycles


def test_cold_start_slower_than_warm_for_small_data():
    cold = _switch("1KiB", children=8, n_clusters=2,
                   algorithm="tree", cold_start=True, seed=7)
    warm = _switch("1KiB", children=8, n_clusters=2,
                   algorithm="tree", cold_start=False, seed=7)
    assert warm.bandwidth_tbps > cold.bandwidth_tbps
    assert cold.icache_fills > 0
    assert warm.icache_fills == 0


def test_explicit_data_round_trip():
    data = np.ones((4, 2, 256), dtype=np.float32)
    r = _switch(
        2 * 1024, children=4, n_clusters=1, algorithm="tree", data=data, seed=8
    )
    for block in r.outputs.values():
        np.testing.assert_array_equal(block, np.full(256, 4.0, dtype=np.float32))


def test_data_shape_validated():
    with pytest.raises(ValueError, match="data shape"):
        _switch(
            2 * 1024, children=4, n_clusters=1,
            data=np.ones((3, 2, 256), dtype=np.float32),
        )


def test_min_operator_end_to_end():
    r = _switch(
        "2KiB", children=4, n_clusters=1, algorithm="single", op="min", seed=9
    )
    assert r.blocks_completed == 2


def test_fcfs_scheduler_also_correct():
    """Plain FCFS pays remote-L1 penalties but must stay correct."""
    r = _switch(
        "8KiB", children=4, n_clusters=2, algorithm="single",
        scheduler="fcfs", seed=10,
    )
    assert r.blocks_completed == r.n_blocks


def test_reproducible_flag_forces_tree():
    r = _switch("64KiB", children=4,
                n_clusters=1, reproducible=True, seed=11)
    assert r.algorithm == "tree"


@pytest.mark.parametrize("name", ["foo", "Single", "multi", "multi(0)", "multi(x)"])
def test_bad_aggregation_names_rejected_at_plan_time(name):
    """A bad ``aggregation=`` name fails when the shape is planned, with
    a ``ValueError`` naming the valid forms: not a bare ``KeyError``, a
    silent multi(1), or a failure only at execute."""
    from repro import Communicator

    with pytest.raises(ValueError, match=r"'single', 'tree' or 'multi\(B\)'"):
        plan_switch_allreduce("4KiB", children=8, algorithm=name, n_clusters=2)
    comm = Communicator(n_hosts=8, n_clusters=2)
    with pytest.raises(ValueError, match=r"'single', 'tree' or 'multi\(B\)'"):
        comm.allreduce("4KiB", algorithm="flare_switch", aggregation=name)
