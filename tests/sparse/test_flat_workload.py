"""Sparse workloads as flat rows, and the driver paths that read them.

``SparseWorkload`` keeps every (host, block) row in three flat arrays;
the ``[host][block]`` grid of :class:`SparseBlock` is only a view.  The
switch driver packetizes, checks and reassembles from the flat arrays,
so a size-only call never builds a block object.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.allreduce import plan_switch_allreduce
from repro.pspin.packets import SwitchPacket
from repro.pspin.switch import PsPINSwitch
from repro.sparse.allreduce import reassemble_egress
from repro.sparse.formats import SparseBlock, SparseWorkload, make_sparse_workload


def _block(b, idx, span=16):
    return SparseBlock(b, span, np.array(idx, dtype=np.int32),
                       np.ones(len(idx), dtype=np.float32))


# ----------------------------------------------------------------------
# Layout and construction
# ----------------------------------------------------------------------
def test_rows_are_host_major_and_round_trip():
    wl = make_sparse_workload(3, 4, 8, 0.25, seed=2, correlation=0.5)
    assert wl.indices.dtype == np.int32
    assert len(wl.offsets) == 3 * 4 + 1
    for h in range(3):
        for b in range(4):
            r = h * 4 + b
            blk = wl.blocks[h][b]
            assert (blk.block_id, blk.span) == (b, wl.block_span)
            lo, hi = wl.offsets[r], wl.offsets[r + 1]
            assert np.array_equal(blk.indices, wl.indices[lo:hi])
            assert np.array_equal(blk.values, wl.values[lo:hi])
    again = SparseWorkload(wl.blocks, wl.n_hosts, wl.n_blocks, wl.block_span,
                           wl.density, wl.dtype)
    for name in ("indices", "values", "offsets"):
        got, want = getattr(again, name), getattr(wl, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_flat_positions_follow_host_order():
    wl = SparseWorkload([[_block(0, [3]), _block(1, [0, 5])],
                         [_block(0, []), _block(1, [7])]], 2, 2, 16, 0.1, "float32")
    pos, vals = wl.flat()
    assert pos.tolist() == [3, 16, 21, 23]
    assert vals.dtype == np.float32 and len(vals) == 4


def test_ragged_blocks_raise_value_error():
    ragged = [[_block(0, [1]), _block(1, [2])], [_block(0, [3])]]
    with pytest.raises(ValueError, match=r"n_hosts x n_blocks = 2 x 2"):
        SparseWorkload(ragged, 2, 2, 16, 0.1, "float32")


def test_too_few_hosts_raise_value_error():
    short = [[_block(0, [1]), _block(1, [2])]]
    with pytest.raises(ValueError, match=r"n_hosts x n_blocks = 3 x 2"):
        SparseWorkload(short, 3, 2, 16, 0.1, "float32")


def test_from_rows_validates_shape_and_range():
    idx = np.array([1, 2, 3], dtype=np.int32)
    vals = np.ones(3, dtype=np.float32)
    with pytest.raises(ValueError, match=r"2 x 2 \+ 1"):
        SparseWorkload.from_rows(idx, vals, [0, 1, 3], 2, 2, 16, 0.1, "float32")
    with pytest.raises(ValueError, match="cover"):
        SparseWorkload.from_rows(idx, vals, [0, 1, 2], 1, 2, 16, 0.1, "float32")
    with pytest.raises(ValueError, match="cover"):
        SparseWorkload.from_rows(idx, vals, [0, 3, 1], 1, 2, 16, 0.1, "float32")
    with pytest.raises(ValueError, match="span"):
        SparseWorkload.from_rows(idx, vals, [0, 1, 3], 1, 2, 3, 0.1, "float32")
    with pytest.raises(ValueError, match="span"):
        SparseWorkload.from_rows(-idx, vals, [0, 1, 3], 1, 2, 16, 0.1, "float32")


def test_size_only_call_builds_no_sparse_block(monkeypatch):
    built = []
    init = SparseBlock.__post_init__

    def counting(self):
        built.append(self.block_id)
        init(self)

    monkeypatch.setattr(SparseBlock, "__post_init__", counting)
    r = plan_switch_allreduce("8KiB", density=0.1, storage="hash", children=16,
                              n_clusters=2, correlation=0.5).execute(seed=1)
    assert r.fast_path_used
    assert built == []
    make_sparse_workload(2, 2, 8, 0.5, seed=0).blocks
    assert len(built) == 4   # the counter works: views are blocks


# ----------------------------------------------------------------------
# Result summary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density,shown", [(0.002, "d=0.20%"), (0.005, "d=0.50%"),
                                           (0.1, "d=10%")])
def test_summary_keeps_small_densities_readable(density, shown):
    r = plan_switch_allreduce("2KiB", density=0.1, storage="array", children=2,
                              n_clusters=1).execute()
    assert replace(r, density=density).summary().startswith(f"sparse-array {shown}: ")


# ----------------------------------------------------------------------
# Egress reassembly
# ----------------------------------------------------------------------
def _per_packet_oracle(egress, span, dtype):
    """The per-packet accumulation the one-pass reassembly replaced."""
    dense_out: dict[int, np.ndarray] = {}
    egress_payload = 0
    for _t, pkt in egress:
        acc = dense_out.setdefault(pkt.block_id, np.zeros(span, dtype=dtype))
        np.add.at(acc, pkt.indices, pkt.payload)
        egress_payload += int(pkt.indices.nbytes + pkt.payload.nbytes)
    return dense_out, egress_payload


def _assert_same(got, want):
    (out, nbytes), (ref, ref_bytes) = got, want
    assert nbytes == ref_bytes
    assert list(out) == list(ref)
    for b, acc in ref.items():
        assert out[b].dtype == acc.dtype
        assert out[b].tobytes() == acc.tobytes()


def test_reassembly_matches_per_packet_loop_on_spills_and_negative_zero():
    """Several spill packets per block hit the same positions with
    float32 values of mixed magnitudes (the add order shows in the last
    bits), and some positions only ever receive ``-0.0``."""
    rng = np.random.default_rng(7)
    span, egress = 32, []
    for k in range(40):
        block = int(rng.integers(0, 5))       # block 5 never completes
        n = int(rng.integers(0, 12))
        idx = rng.choice(span, size=n, replace=False).astype(np.int32)
        vals = (rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5, n)).astype(np.float32)
        vals[idx >= 28] = np.float32(-0.0)
        egress.append((float(k), SwitchPacket(1, block, 0, vals, indices=idx)))
    got = reassemble_egress(egress, 6, span, "float32")
    _assert_same(got, _per_packet_oracle(egress, span, "float32"))
    assert 5 not in got[0]
    assert reassemble_egress([], 6, span, "float32") == ({}, 0)


@pytest.mark.parametrize("storage,density", [("hash", 0.1), ("array", 0.1)])
def test_reassembly_matches_per_packet_loop_on_switch_egress(monkeypatch, storage, density):
    """On real egress, spill packets included (hash storage spills here)."""
    captured = []
    run = PsPINSwitch.run

    def capture(self):
        makespan = run(self)
        captured.append(list(self.egress))
        return makespan

    monkeypatch.setattr(PsPINSwitch, "run", capture)
    r = plan_switch_allreduce("8KiB", density=density, storage=storage, children=16,
                              n_clusters=2).execute(seed=4)
    (egress,) = captured
    if storage == "hash":
        assert r.spilled_bytes > 0
    want = _per_packet_oracle(egress, len(r.outputs[0]), "float32")
    _assert_same((r.outputs, r.egress_payload_bytes), want)
    _assert_same(reassemble_egress(egress, r.n_blocks, len(r.outputs[0]), "float32"),
                 want)
