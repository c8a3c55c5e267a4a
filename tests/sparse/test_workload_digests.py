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
    (0.0, 0.01): "fcf946d920db0e03fff42ddc505d7394fb99d686401d5d97103b622a61804822",
    (0.0, 0.1): "467aa818ed18959234913c915a3b541fd0ac7fbc94b4799d053d57434ff33d6b",
    (0.0, 1.0): "6cd83c410feeef7aea766fdce2b9a03ad309b4bdd6fbeceb65cfe0682d909f1a",
    (0.7, 0.01): "2855020fa93ece49c76f3fbfcfbc9bff3c685dd7c4b5b80db3832456ef4ac6ff",
    (0.7, 0.1): "fae8aa0c5b08a7153bd7229025ec40ec151bc2a2f7fb6e1589a1dc06daa917e0",
    (0.7, 1.0): "b810bcb26896eab79ab4a7bb272ee18e9097713eaa05105bfa9d5b1a991ef921",
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
