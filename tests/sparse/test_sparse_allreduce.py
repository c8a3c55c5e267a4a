"""Integration tests for the sparse design of the switch-level
allreduce (Fig. 13/14 driver) at reduced scale."""

import pytest

from repro.core.allreduce import SwitchInfeasibleError, plan_switch_allreduce
from repro.core.config import FlareConfig
from repro.sparse.handlers import SparseHandlerConfig
from repro.sparse.models import (
    array_block_memory_bytes,
    hash_block_memory_bytes,
    sparse_design_point,
    sparse_packet_cycles,
)


def test_hash_and_array_verify_against_golden():
    for storage in ("hash", "array"):
        r = plan_switch_allreduce(
            "8KiB", density=0.2, storage=storage, children=8, n_clusters=1,
        ).execute(seed=1)
        assert r.blocks_completed == r.n_blocks


def test_hash_memory_density_independent():
    mems = []
    for d in (0.2, 0.05):
        r = plan_switch_allreduce(
            "8KiB", density=d, storage="hash", children=8, n_clusters=1,
        ).execute(seed=2)
        mems.append(r.block_memory_bytes)
    assert mems[0] == mems[1]


def test_array_memory_grows_as_density_drops():
    mems = []
    for d in (0.2, 0.05):
        r = plan_switch_allreduce(
            "8KiB", density=d, storage="array", children=8, n_clusters=1,
        ).execute(seed=2)
        mems.append(r.block_memory_bytes)
    assert mems[1] > mems[0]


def test_array_infeasible_at_extreme_sparsity():
    plan = plan_switch_allreduce("64KiB", density=0.001, storage="array",
                                 children=16, n_clusters=1)
    with pytest.raises(SwitchInfeasibleError, match="partition") as info:
        plan.execute(seed=3)
    assert info.value.block_memory_bytes > 0


@pytest.mark.parametrize("kwargs", [{"algorithm": "tree"}, {"op": "max"}])
def test_sparse_plan_rejects_dense_only_knobs(kwargs):
    with pytest.raises(ValueError, match="dense design"):
        plan_switch_allreduce("8KiB", density=0.1, children=8, **kwargs)


@pytest.mark.parametrize("storage", ["hash", "array"])
def test_infeasible_standalone_run_raises(storage):
    """1 MiB of 10%-dense blocks from 8 hosts overflows both storages'
    working-memory partition; the run used to return ``time_ns == 0``."""
    from repro.comm import CapabilityError, Communicator

    comm = Communicator(n_hosts=8)
    with pytest.raises(CapabilityError, match="cannot fit"):
        comm.allreduce("1MiB", algorithm="flare_switch_sparse", sparse=True,
                       density=0.1, storage=storage)


def test_array_never_generates_extra_traffic():
    r = plan_switch_allreduce(
        "8KiB", density=0.2, storage="array", children=8, n_clusters=1,
    ).execute(seed=4)
    assert r.spilled_bytes == 0
    assert r.extra_traffic_pct == 0.0


def test_hash_generates_extra_traffic_when_dense():
    r = plan_switch_allreduce(
        "16KiB", density=0.2, storage="hash", children=16, n_clusters=1,
    ).execute(seed=5)
    assert r.spilled_bytes > 0
    assert r.extra_traffic_pct > 0


def test_correlated_indices_reduce_spill():
    uncorr = plan_switch_allreduce(
        "16KiB", density=0.1, storage="hash", children=16, n_clusters=1, correlation=0.0,
    ).execute(seed=6)
    corr = plan_switch_allreduce(
        "16KiB", density=0.1, storage="hash", children=16, n_clusters=1, correlation=0.9,
    ).execute(seed=6)
    assert corr.spilled_bytes < uncorr.spilled_bytes


def test_sparse_bandwidth_below_dense():
    """Sec. 7.1: sparse handlers cost more per byte than dense."""
    dense = plan_switch_allreduce("32KiB", children=8, n_clusters=1,
                                  algorithm="single").execute(seed=7)
    sparse = plan_switch_allreduce(
        "32KiB", density=0.1, storage="hash", children=8, n_clusters=1,
    ).execute(seed=7)
    assert sparse.bandwidth_tbps < dense.bandwidth_tbps


# ----------------------------------------------------------------------
# Closed-form sparse models (Fig. 13)
# ----------------------------------------------------------------------
def test_sparse_packet_cycles_hash_density_independent():
    cfg = FlareConfig(children=64, data_bytes="256KiB")
    assert sparse_packet_cycles(cfg, "hash", 0.2) == sparse_packet_cycles(
        cfg, "hash", 0.01
    )


def test_sparse_packet_cycles_array_grows_at_low_density():
    cfg = FlareConfig(children=64, data_bytes="256KiB")
    assert sparse_packet_cycles(cfg, "array", 0.01) > sparse_packet_cycles(
        cfg, "array", 0.2
    )


def test_fig13_shape_sparse_slower_than_dense_array_faster_than_hash():
    cfg = FlareConfig(children=64, subset_size=8, data_bytes="512KiB")
    from repro.core.models import evaluate_design

    dense = evaluate_design(cfg, "tree")
    hash_point = sparse_design_point(cfg, "tree", "hash", density=0.1)
    array_point = sparse_design_point(cfg, "tree", "array", density=0.1)
    assert hash_point.bandwidth_tbps < array_point.bandwidth_tbps
    assert array_point.bandwidth_tbps < dense.bandwidth_tbps


def test_block_memory_models():
    cfg = FlareConfig(children=64)
    assert hash_block_memory_bytes(cfg) == hash_block_memory_bytes(cfg)
    assert array_block_memory_bytes(cfg, 0.01) > array_block_memory_bytes(cfg, 0.2)


def test_invalid_storage_and_density_rejected():
    cfg = FlareConfig(children=64)
    with pytest.raises(ValueError):
        sparse_packet_cycles(cfg, "btree", 0.1)
    with pytest.raises(ValueError):
        sparse_packet_cycles(cfg, "hash", 0.0)
    with pytest.raises(ValueError):
        SparseHandlerConfig(allreduce_id=1, n_children=2, storage="btree")
