"""The sparse switch's golden check: every block summed in one pass.

``SparseWorkload.golden_dense_sums`` replaces one dense vector per host
and block with a single ``np.add.at`` over the workload, in host order.
The per-block loop it replaces is kept below as the oracle: the sums
must match it bitwise on order-sensitive float32 data, and the check
that uses them must still catch a corrupted or a missing block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.allreduce import plan_switch_allreduce
from repro.pspin.switch import PsPINSwitch
from repro.sparse.formats import SparseBlock, SparseWorkload, make_sparse_workload


def _oracle(workload: SparseWorkload, block_id: int) -> np.ndarray:
    """The per-host dense loop the one-pass sum replaced."""
    acc = workload.blocks[0][block_id].to_dense()
    for h in range(1, workload.n_hosts):
        acc = acc + workload.blocks[h][block_id].to_dense()
    return acc


def _noisy(workload: SparseWorkload, seed: int, scale: float) -> SparseWorkload:
    """The same positions with float32 values of mixed magnitudes, so
    the order of addition shows in the last bits."""
    rng = np.random.default_rng(seed)
    blocks = [
        [
            SparseBlock(blk.block_id, blk.span, blk.indices,
                        (rng.standard_normal(blk.nnz)
                         * scale ** rng.integers(-3, 4, blk.nnz)).astype(np.float32))
            for blk in host
        ]
        for host in workload.blocks
    ]
    return SparseWorkload(blocks, workload.n_hosts, workload.n_blocks,
                          workload.block_span, workload.density, "float32")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("density,correlation", [(0.05, 0.0), (0.2, 0.7), (1.0, 0.0)])
def test_one_pass_sums_match_per_block_loop_bitwise(seed, density, correlation):
    base = make_sparse_workload(
        n_hosts=16, n_blocks=6, elements_per_packet=32, density=density,
        seed=seed, correlation=correlation,
    )
    wl = _noisy(base, seed, scale=10.0)
    sums = wl.golden_dense_sums()
    assert sums.shape == (wl.n_blocks, wl.block_span) and sums.dtype == np.float32
    for b in range(wl.n_blocks):
        want = _oracle(wl, b)
        assert sums[b, : want.size].tobytes() == want.tobytes()
    # Order matters on this data: summing hosts in reverse differs.
    rev = SparseWorkload(wl.blocks[::-1], wl.n_hosts, wl.n_blocks,
                         wl.block_span, wl.density, wl.dtype)
    assert any(
        rev.golden_dense_sums()[b].tobytes() != sums[b].tobytes()
        for b in range(wl.n_blocks)
    )


def test_ideal_egress_and_outputs_unchanged():
    """The one-mark-array ideal egress equals the per-block unions."""
    r = plan_switch_allreduce("8KiB", density=0.1, storage="hash", children=16,
                              n_clusters=2).execute(seed=3)
    wl = make_sparse_workload(n_hosts=16, n_blocks=r.n_blocks, elements_per_packet=128,
                              density=0.1, seed=3)
    distinct = sum(
        np.unique(np.concatenate([host[b].indices for host in wl.blocks])).size
        for b in range(wl.n_blocks)
    )
    assert r.ideal_egress_bytes == distinct * 8


def _patched_run(monkeypatch, damage):
    run = PsPINSwitch.run

    def damaged(self):
        makespan = run(self)
        damage(self.egress)
        return makespan

    monkeypatch.setattr(PsPINSwitch, "run", damaged)


def test_corrupted_egress_raises(monkeypatch):
    def corrupt(egress):
        _t, pkt = next(e for e in egress if e[1].payload.size)
        pkt.payload = pkt.payload + np.float32(1.0)

    _patched_run(monkeypatch, corrupt)
    with pytest.raises(AssertionError, match="sparse aggregation mismatch"):
        plan_switch_allreduce("8KiB", density=0.1, children=16,
                              n_clusters=2).execute(seed=1)


def test_missing_block_raises(monkeypatch):
    def drop(egress):
        egress[:] = [e for e in egress if e[1].block_id != 1]

    _patched_run(monkeypatch, drop)
    with pytest.raises(AssertionError, match="block 1 never completed"):
        plan_switch_allreduce("8KiB", density=0.1, children=16,
                              n_clusters=2).execute(seed=1)
