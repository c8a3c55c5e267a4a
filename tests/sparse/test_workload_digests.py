"""The sparse workload generator's output is pinned bit for bit.

Every seeded sparse result downstream (Figs. 13/14, the ledger's
``switch-sparse``, the parity suites) starts from these bits, so an
optimization of the generator must leave them alone.
"""

import hashlib

import pytest

from repro.sparse.formats import make_sparse_workload

#: SHA-256 of ``make_sparse_workload(8, 4, 128, density, seed=11,
#: correlation=corr)``, recorded before the generator was optimized.
WORKLOAD_DIGESTS = {
    (0.0, 0.01): "e6c123d05e449b6cba59f66df46cf847b75a8559160b71fb5f63acf845e6344a",
    (0.0, 0.1): "d21846332ced55662fefd5a779fcdd3e4ef7e5c70cd597019cfe9684dd962142",
    (0.0, 1.0): "faea2b8ffe16be70a40dd9bf946ae88a7c3e33491c50186f0c03442a01927ecb",
    (0.7, 0.01): "edf410aa1a3b0d383891371049af82f97b217a80aafde9abff51efa1d332a526",
    (0.7, 0.1): "3ce676338402a5a10fe63ebc84146be3db98798821b6e504a31d2fc063188969",
    (0.7, 1.0): "88f4accf67bc2556b394c72f87c7b9c1417a9d32f5f566b688413a148005d4c9",
}


@pytest.mark.parametrize("corr,density", sorted(WORKLOAD_DIGESTS))
def test_workload_bits_are_pinned(corr, density):
    wl = make_sparse_workload(8, 4, 128, density, dtype="float32", seed=11,
                              correlation=corr)
    h = hashlib.sha256()
    h.update(f"{wl.n_hosts},{wl.n_blocks},{wl.block_span},{wl.dtype}".encode())
    for host in wl.blocks:
        for blk in host:
            h.update(f"{blk.block_id},{blk.span},{blk.indices.dtype},"
                     f"{blk.values.dtype}".encode())
            h.update(blk.indices.tobytes())
            h.update(blk.values.tobytes())
    assert h.hexdigest() == WORKLOAD_DIGESTS[(corr, density)]
