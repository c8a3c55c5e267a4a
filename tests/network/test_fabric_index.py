"""The flat fabric index under the FIFO hop windows.

Covers the vectorized link lookup and bit-identity of the vectorized
up-down next hop against the scalar router — the property the windows'
bitwise parity with per-event hops rests on.
"""

import numpy as np
import pytest

from repro.network import FatTreeTopology
from repro.network.routing import build_router
from repro.network.windows import build_index, updown_next_hop_vec


def _fat_tree():
    return FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)


# ----------------------------------------------------------------------
# Flat index
# ----------------------------------------------------------------------
def test_link_ids_roundtrip_every_link():
    topo = _fat_tree()
    index = build_index(topo)
    src = index.link_src
    dst = index.link_dst
    ids = index.link_ids(src, dst)
    assert np.array_equal(ids, np.arange(index.n_links))
    for li in (0, index.n_links // 2, index.n_links - 1):
        a, b = index.link_keys[li]
        assert index.names[int(src[li])] == a
        assert index.names[int(dst[li])] == b


def test_link_ids_raises_on_missing_link():
    topo = _fat_tree()
    index = build_index(topo)
    h0, h1 = index.idx["h0"], index.idx["h1"]
    with pytest.raises(KeyError):
        index.link_ids(np.asarray([h0]), np.asarray([h1]))


def test_link_arrays_match_live_links():
    topo = _fat_tree()
    index = build_index(topo)
    for li, ln in enumerate(topo.links()):
        assert index.link_rate[li] == ln.bytes_per_ns
        assert index.link_latency[li] == ln.latency_ns


# ----------------------------------------------------------------------
# Vectorized up-down routing == scalar router, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_updown_vec_matches_scalar_router(seed):
    topo = _fat_tree()
    index = build_index(topo)
    router = build_router("updown", topo, seed=seed)
    rng = np.random.default_rng(seed)
    n = index.n_nodes
    at = rng.integers(0, n, size=512)
    dst_hosts = rng.integers(0, len(topo.hosts), size=512)
    # Keep only pairs the scalar router accepts (not spine->spine, not
    # self) and that are actually en route.
    pairs = [
        (int(a), int(d)) for a, d in zip(at, dst_hosts) if int(a) != int(d)
    ]
    node = np.asarray([a for a, _ in pairs], dtype=np.int64)
    dst = np.asarray([d for _, d in pairs], dtype=np.int64)
    vec = updown_next_hop_vec(index, node, dst, router._salt)
    for i in range(node.size):
        scalar = router.next_hop(
            index.names[int(node[i])], index.names[int(dst[i])]
        )
        assert index.names[int(vec[i])] == scalar
