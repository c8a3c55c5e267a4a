"""Tests for staggered sending and arrival-stream synthesis (Sec. 5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.staggered import arrival_arrays
from repro.utils.rngtools import seeded_rng


def _host_orders(n_hosts, n_blocks, staggered=True):
    """Each host's blocks in the order it sends them."""
    _times, hosts, blocks = arrival_arrays(
        n_hosts, n_blocks, delta=1.0, staggered=staggered
    )
    return [blocks[hosts == h].tolist() for h in range(n_hosts)]


def _delta_c(times, blocks):
    """Empirical mean intra-block interarrival of a stream: the mean
    gap between consecutive packets of the same block."""
    gaps = [np.diff(np.sort(times[blocks == b])) for b in np.unique(blocks)]
    return float(np.mean(np.concatenate(gaps)))


def test_sequential_schedule_all_hosts_identical():
    orders = _host_orders(4, 8, staggered=False)
    assert all(o == list(range(8)) for o in orders)


def test_staggered_schedule_offsets_hosts():
    orders = _host_orders(4, 8)
    assert [o[0] for o in orders] == [0, 2, 4, 6]


@given(hosts=st.integers(1, 16), blocks=st.integers(1, 64))
def test_property_staggered_orders_are_permutations(hosts, blocks):
    for h, order in enumerate(_host_orders(hosts, blocks)):
        assert sorted(order) == list(range(blocks))
        # Host h starts at block h * Z / P and wraps around.
        start = (h * blocks) // hosts
        assert order == [(start + i) % blocks for i in range(blocks)]


def test_stream_is_sorted_and_complete():
    times, hosts, blocks = arrival_arrays(n_hosts=4, n_blocks=8, delta=2.0, jitter=0.0)
    assert len(times) == len(hosts) == len(blocks) == 32
    assert times.tolist() == sorted(times.tolist())
    # Every (host, block) pair appears exactly once.
    assert len(set(zip(hosts.tolist(), blocks.tolist()))) == 32


def test_staggering_raises_intra_block_interarrival():
    seq_t, _, seq_b = arrival_arrays(4, 16, delta=1.0, staggered=False, jitter=0.0)
    stag_t, _, stag_b = arrival_arrays(4, 16, delta=1.0, staggered=True, jitter=0.0)
    assert _delta_c(stag_t, stag_b) > 3 * _delta_c(seq_t, seq_b)


def test_delta_c_upper_bound_is_delta_blocks():
    """Sec. 5: delta <= delta_c <= delta * Z/N."""
    for blocks in (4, 8, 32):
        times, _, block_ids = arrival_arrays(4, blocks, delta=2.0, staggered=True, jitter=0.0)
        dc = _delta_c(times, block_ids)
        assert 2.0 <= dc <= 2.0 * blocks + 1e-9


def test_jitter_preserves_mean_rate():
    base = arrival_arrays(4, 64, delta=2.0, jitter=0.0)[0]
    noisy = arrival_arrays(4, 64, delta=2.0, jitter=1.0, seed=3)[0]
    span_base = base[-1] - base[0]
    span_noisy = noisy[-1] - noisy[0]
    assert span_noisy == pytest.approx(span_base, rel=0.35)


def test_jitter_streams_are_seed_deterministic():
    a = arrival_arrays(4, 16, delta=2.0, jitter=1.0, seed=5)
    b = arrival_arrays(4, 16, delta=2.0, jitter=1.0, seed=5)
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        arrival_arrays(0, 4, delta=1.0)
    with pytest.raises(ValueError):
        arrival_arrays(4, 0, delta=1.0)
    with pytest.raises(ValueError):
        arrival_arrays(4, 4, delta=0.0)


@pytest.mark.parametrize("jitter", [-0.5, 1.5, 2.0, float("nan")])
def test_jitter_outside_unit_interval_rejected(jitter):
    """Above 1 the fixed part of a gap is negative (a host's packets
    reorder, times fall below ``start``); below 0 it acted as 0."""
    with pytest.raises(ValueError, match="jitter"):
        arrival_arrays(8, 16, delta=10.0, jitter=jitter, seed=3)


def _loop_arrival_arrays(n_hosts, n_blocks, delta, staggered, jitter, seed, start):
    """The per-host loop ``arrival_arrays`` vectorizes, kept as the
    oracle: one ``exponential`` draw and one ``cumsum`` per host."""
    if staggered:
        offsets = (np.arange(n_hosts) * n_blocks) // n_hosts
        orders = (offsets[:, None] + np.arange(n_blocks)[None, :]) % n_blocks
    else:
        orders = np.broadcast_to(np.arange(n_blocks), (n_hosts, n_blocks))
    rng = seeded_rng(seed)
    times = np.empty((n_hosts, n_blocks), dtype=np.float64)
    base = np.arange(n_blocks) * (n_hosts * delta)
    for h in range(n_hosts):
        if jitter > 0:
            gaps = rng.exponential(scale=n_hosts * delta, size=n_blocks)
            gaps = (1.0 - jitter) * (n_hosts * delta) + jitter * gaps
            times[h] = start + h * delta + np.cumsum(gaps) - gaps[0]
        else:
            times[h] = start + h * delta + base
    hosts = np.repeat(np.arange(n_hosts), n_blocks)
    flat_times = times.reshape(-1)
    flat_blocks = orders.reshape(-1)
    order = np.lexsort((hosts, flat_times))
    return flat_times[order], hosts[order], flat_blocks[order]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("jitter", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("start", [0.0, 3.5, 1e6 + 0.1])
@pytest.mark.parametrize("staggered", [True, False])
def test_arrival_arrays_bitwise_equal_to_per_host_loop(seed, jitter, start, staggered):
    for hosts, blocks, delta in ((64, 64, 3.7), (6, 16, 1.0), (4, 8, 2), (1, 5, 0.3)):
        got = arrival_arrays(hosts, blocks, delta, staggered=staggered,
                             jitter=jitter, seed=seed, start=start)
        want = _loop_arrival_arrays(hosts, blocks, delta, staggered, jitter,
                                    seed, start)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
