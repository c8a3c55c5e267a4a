"""Unit tests for the halving/doubling schedule math (swing, butterfly
and rabenseifner partner sequences, owned-block T-sets) and the
simulated schedules built on them."""

import numpy as np
import pytest

from repro.collectives.schedule import (
    PARTNER_FUNCTIONS,
    block_sets,
    butterfly_partner,
    rabenseifner_partner,
    swing_distance,
    swing_partner,
)
from repro.comm import Communicator
from repro.network.topology import FatTreeTopology
from repro.utils.units import MIB


def _topo(n_hosts=8):
    return FatTreeTopology(n_hosts=n_hosts, hosts_per_leaf=4, n_spines=2)


def test_swing_distance_sequence():
    """delta_s = (1 - (-2)^(s+1)) / 3: the sign alternation is what
    makes the union of step distances cover every rank exactly once."""
    assert [swing_distance(s) for s in range(6)] == [1, -1, 3, -5, 11, -21]


@pytest.mark.parametrize("variant", sorted(PARTNER_FUNCTIONS))
@pytest.mark.parametrize("n_ranks", [2, 4, 8, 16, 32, 64])
def test_partner_is_a_perfect_matching(variant, n_ranks):
    """At every step, partnering is symmetric and fixed-point free."""
    fn = PARTNER_FUNCTIONS[variant]
    for step in range(n_ranks.bit_length() - 1):
        seen = set()
        for rank in range(n_ranks):
            p = fn(rank, step, n_ranks)
            assert 0 <= p < n_ranks and p != rank
            assert fn(p, step, n_ranks) == rank     # symmetric
            seen.add(frozenset((rank, p)))
        assert len(seen) == n_ranks // 2            # perfect matching


def test_butterfly_partner_is_xor():
    assert butterfly_partner(5, 0, 8) == 4
    assert butterfly_partner(5, 1, 8) == 7
    assert butterfly_partner(5, 2, 8) == 1


def test_rabenseifner_partner_is_xor_farthest_first():
    assert [rabenseifner_partner(5, s, 8) for s in range(3)] == [1, 7, 4]
    # The lower rank of the first pair keeps the lower half.
    T = block_sets(rabenseifner_partner, 8)
    assert T[1][1] == frozenset(range(4)) and T[1][5] == frozenset(range(4, 8))


def test_swing_partner_parity_mirrors():
    """Even ranks step +delta, odd ranks step -delta (mod P): that
    mirroring is what keeps the matching symmetric."""
    assert swing_partner(0, 0, 8) == 1 and swing_partner(1, 0, 8) == 0
    assert swing_partner(2, 1, 8) == 1 and swing_partner(1, 1, 8) == 2
    assert swing_partner(0, 2, 8) == 3 and swing_partner(3, 2, 8) == 0


@pytest.mark.parametrize("variant", sorted(PARTNER_FUNCTIONS))
@pytest.mark.parametrize("n_ranks", [2, 4, 8, 16, 32, 64])
def test_block_sets_partition_at_every_level(variant, n_ranks):
    """T(., s) partitions the block space at every recursion level, and
    the final level leaves each rank owning exactly its own block."""
    T = block_sets(PARTNER_FUNCTIONS[variant], n_ranks)
    n_steps = n_ranks.bit_length() - 1
    for s in range(n_steps + 1):
        owned = [T[s][j] for j in range(n_ranks)]
        assert set().union(*owned) == set(range(n_ranks))
        # Disjoint within one "period" of 2^s ranks; full level-0 set
        # is the whole space owned by each group exactly once.
        total = sum(len(o) for o in owned)
        assert total == n_ranks * (n_ranks >> s)
    assert all(T[n_steps][j] == frozenset({j}) for j in range(n_ranks))
    assert all(T[0][j] == frozenset(range(n_ranks)) for j in range(n_ranks))


def test_block_sets_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        block_sets(PARTNER_FUNCTIONS["butterfly"], 6)


@pytest.mark.parametrize("variant", sorted(PARTNER_FUNCTIONS))
def test_simulated_wire_bytes_match_closed_form(variant):
    """Every halving/doubling schedule moves exactly 2 Z (P-1)/P bytes
    per host."""
    Z = 4 * MIB
    r = Communicator(topology=_topo()).allreduce(Z, algorithm=variant)
    assert r.sent_bytes_per_host == pytest.approx(Z * 2 * 7 / 8)
    assert r.time_ns >= 2 * Z * 7 / 8 / 12.5      # bandwidth bound


@pytest.mark.parametrize("variant", sorted(PARTNER_FUNCTIONS))
@pytest.mark.parametrize("n_ranks", [2, 4, 8, 16])
def test_simulated_payload_reduction_bitwise(variant, n_ranks):
    rng = np.random.default_rng(7)
    data = rng.integers(-8, 8, size=(n_ranks, 256)).astype(np.int32)
    golden = data.sum(axis=0)
    topo = FatTreeTopology(n_hosts=max(n_ranks, 8), hosts_per_leaf=4,
                           n_spines=2)
    r = Communicator(topology=topo).allreduce(
        data, algorithm=variant, hosts=[f"h{i}" for i in range(n_ranks)]
    )
    np.testing.assert_array_equal(np.asarray(r.extra["output"]), golden)
