"""Tests for the closed-form models (paper Eqs. 1-2, Secs. 4-6).

The quantitative anchors come from the paper's own design point:
K=512 cores, C=8, P=64 children, 1 KiB fp32 packets (L=1024 cycles),
line rate delta=1.28 cycles/packet.
"""


import pytest
from hypothesis import given, strategies as st

from repro.core.config import FlareConfig
from repro.core.models import (
    ModelInputs,
    bandwidth_packets_per_cycle,
    block_latency_cycles,
    burst_interarrival,
    contended_tau,
    evaluate_design,
    input_buffer_packets,
    max_staggered_interarrival,
    multi_buffer_tau,
    queue_length,
    tree_buffers_per_block,
    tree_tau,
)
from repro.utils.units import MIB


def _cfg(data="512KiB", S=8, staggered=True, children=64):
    return FlareConfig(
        children=children,
        subset_size=S,
        data_bytes=data,
        staggered=staggered,
    )


def _inputs(cfg, L=None):
    from repro.core.models import _inputs_from_config

    return _inputs_from_config(cfg, L=L)


# ----------------------------------------------------------------------
# Symbol plumbing
# ----------------------------------------------------------------------
def test_config_derived_symbols():
    cfg = _cfg("1MiB")
    assert cfg.n_cores == 512
    assert cfg.elements_per_packet == 256
    assert cfg.blocks == 1024
    assert cfg.aggregation_cycles == 1024.0
    # Balanced feed (default): delta = L / K = 2 cycles, the paper's
    # Sec. 5 "interarrival >= service time" operating point.
    assert cfg.delta == pytest.approx(2.0)
    # Staggered bound: delta * Z/N.
    assert cfg.delta_c == pytest.approx(2.0 * 1024)


def test_line_feed_delta():
    cfg = FlareConfig(children=64, feed="line")
    assert cfg.delta == pytest.approx(1.28)
    cfg_exp = FlareConfig(children=64, feed=4.0)
    assert cfg_exp.delta == 4.0
    with pytest.raises(ValueError):
        _ = FlareConfig(children=64, feed="warp").delta


def test_unstaggered_delta_c_is_delta():
    cfg = _cfg("1MiB", staggered=False)
    assert cfg.delta_c == cfg.delta


# ----------------------------------------------------------------------
# Service-time models
# ----------------------------------------------------------------------
def test_single_buffer_contention_branches():
    """8 KiB data cannot stagger past L -> contended; delta_c >= L ->
    uncontended tau = L (Eq. 2)."""
    m = _inputs(_cfg("8KiB"))
    tau, contended = multi_buffer_tau(m, 1)
    assert contended
    assert 1024.0 < tau <= contended_tau(1024.0, 8)  # Eq. 2 is the bound

    big = ModelInputs(K=512, S=8, C=8, P=64, delta=2.0, delta_c=1100.0, L=1024.0)
    tau, contended = multi_buffer_tau(big, 1)
    assert not contended and tau == 1024.0


def test_single_buffer_s1_never_contends():
    m = ModelInputs(K=512, S=1, C=8, P=64, delta=2.0, delta_c=2.0, L=1024.0)
    tau, contended = multi_buffer_tau(m, 1)
    assert tau == 1024.0 and not contended


def test_contended_tau_floor():
    assert contended_tau(1000.0, 1) == 1000.0
    assert contended_tau(1000.0, 2) == 1000.0
    assert contended_tau(1000.0, 8) == 3500.0


def test_multi_buffer_relaxes_contention_by_B():
    base = ModelInputs(K=512, S=8, C=8, P=64, delta=2.0, delta_c=300.0, L=1024.0)
    tau1, c1 = multi_buffer_tau(base, 1)
    tau4, c4 = multi_buffer_tau(base, 4)
    assert c1 and not c4            # 4 * 300 >= 1024
    assert tau4 < tau1
    # Merge overhead: (B-1) L / P on top of L.
    assert tau4 == pytest.approx(1024.0 + 3 * 1024.0 / 64)


def test_tree_tau_never_contended_and_near_L():
    m = ModelInputs(
        K=512, S=8, C=8, P=64, delta=2.0, delta_c=2.0, L=1024.0, copy_cycles=64.0
    )
    tau, contended = tree_tau(m)
    assert not contended
    assert tau == pytest.approx(64.0 + 63 * 1024.0 / 64)


def test_tree_buffers_per_block():
    assert tree_buffers_per_block(1) == 1.0
    assert tree_buffers_per_block(64) == pytest.approx(63 / 6)


# ----------------------------------------------------------------------
# Occupancy equations (Eq. 1 and friends)
# ----------------------------------------------------------------------
def test_queue_and_input_buffers_fig7_anchor():
    """S=1 at 8 KiB: the paper reports ~30 MiB of input buffers.

    delta=1.28, 8 blocks -> delta_c = 10.24; delta_k = min(1*10.24,
    512*1.28) = 10.24; Q = 64 * (1 - 10.24/1024) ~ 63.4;
    script_Q = (Q+1)*512 ~ 32,966 packets ~ 32 MiB.
    """
    cfg = _cfg("8KiB", S=1)
    m = _inputs(cfg)
    tau, _ = multi_buffer_tau(m, 1)
    pkts = input_buffer_packets(m, tau)
    assert pkts * 1024 / MIB == pytest.approx(32.2, rel=0.05)


def test_queue_shrinks_with_subset_size():
    cfg1, cfg8 = _cfg("8KiB", S=1), _cfg("8KiB", S=8)
    m1, m8 = _inputs(cfg1), _inputs(cfg8)
    q1 = queue_length(m1, multi_buffer_tau(m1, 1)[0])
    q8 = queue_length(m8, multi_buffer_tau(m8, 1)[0])
    assert q8 < q1


def test_queue_zero_when_service_keeps_up():
    m = ModelInputs(K=4, S=1, C=4, P=4, delta=1.0, delta_c=4.0, L=4.0)
    assert queue_length(m, 4.0) == 0.0
    assert input_buffer_packets(m, 4.0) == 4.0  # just the in-service ones


def test_latency_includes_arrival_spread_and_queueing():
    m = ModelInputs(K=4, S=1, C=4, P=4, delta=1.0, delta_c=4.0, L=4.0)
    assert block_latency_cycles(m, 4.0) == pytest.approx(3 * 4.0 + 4.0)


def test_bandwidth_is_min_of_compute_and_line_rate():
    assert bandwidth_packets_per_cycle(512, 1024.0, 1.28) == pytest.approx(0.5)
    assert bandwidth_packets_per_cycle(512, 1024.0, 4.0) == pytest.approx(0.25)


def test_burst_interarrival_capped_by_line_rate_share():
    m = ModelInputs(K=512, S=8, C=8, P=64, delta=1.28, delta_c=2000.0, L=1024.0)
    assert burst_interarrival(m) == pytest.approx(512 * 1.28)


def test_max_staggered_interarrival_bound():
    assert max_staggered_interarrival(2.0, 8) == 16.0
    assert max_staggered_interarrival(2.0, 0) == 2.0


# ----------------------------------------------------------------------
# evaluate_design integration
# ----------------------------------------------------------------------
def test_fig10_shape_small_data_tree_wins():
    """At 64 KiB, tree out-bandwidths single and multi (Fig. 10 left)."""
    cfg = _cfg("64KiB")
    single = evaluate_design(cfg, "single")
    multi2 = evaluate_design(cfg, "multi", n_buffers=2)
    multi4 = evaluate_design(cfg, "multi", n_buffers=4)
    tree = evaluate_design(cfg, "tree")
    assert tree.bandwidth_tbps > multi4.bandwidth_tbps
    assert multi4.bandwidth_tbps >= multi2.bandwidth_tbps
    assert multi2.bandwidth_tbps >= single.bandwidth_tbps


def test_fig10_shape_large_data_converges():
    """At >= 512 KiB all designs approach the 4.1 Tbps compute bound."""
    cfg = FlareConfig(children=64, subset_size=8, data_bytes="1MiB", n_ports=32)
    for algo, b in (("single", 1), ("multi", 2), ("multi", 4), ("tree", 1)):
        point = evaluate_design(cfg, algo, n_buffers=b)
        assert point.bandwidth_tbps > 2.5, (algo, point.bandwidth_tbps)


def test_peak_bandwidth_is_about_4_tbps():
    """K/L = 512/1024 pkt/cycle * 1 KiB = 4.096 Tbps compute bound."""
    cfg = FlareConfig(children=64, subset_size=8, data_bytes="8MiB")
    point = evaluate_design(cfg, "single")
    assert point.bandwidth_tbps == pytest.approx(4.096, rel=0.01)


def test_working_memory_single_buffer_512kib_anchor():
    """Paper Sec. 6.1: working memory 'negligible and around 512KiB'."""
    cfg = FlareConfig(children=64, subset_size=8, data_bytes="2MiB", n_ports=32)
    point = evaluate_design(cfg, "single")
    assert 0.1 * MIB < point.working_memory_bytes < 1.2 * MIB


def test_tree_uses_more_working_memory_than_single():
    cfg = _cfg("64KiB")
    assert (
        evaluate_design(cfg, "tree").buffers_per_block
        > evaluate_design(cfg, "single").buffers_per_block
    )


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        evaluate_design(_cfg(), "quantum")


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
@given(
    S=st.sampled_from([1, 2, 4, 8]),
    P=st.integers(min_value=1, max_value=128),
    blocks=st.integers(min_value=1, max_value=2048),
)
def test_property_bandwidth_never_exceeds_line_rate(S, P, blocks):
    cfg = FlareConfig(
        children=P, subset_size=S, data_bytes=blocks * 1024, staggered=True
    )
    for algo in ("single", "tree"):
        point = evaluate_design(cfg, algo)
        assert point.bandwidth_packets_per_cycle <= 1.0 / cfg.delta + 1e-9
        assert point.queue_length >= 0.0
        assert point.working_buffers >= 0.0


@given(st.integers(min_value=2, max_value=512))
def test_property_tree_merge_memory_between_1_and_P(P):
    m = tree_buffers_per_block(P)
    assert 1.0 <= m <= P
