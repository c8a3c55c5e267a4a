"""Cross-validation: the behavioral simulator against the closed-form
models (the paper's own consistency claim between Secs. 5-6 math and
the PsPIN-simulated Sec. 6.4 numbers).

These tests feed the simulator in controlled regimes where the model's
assumptions hold exactly (no jitter, steady arrivals) and check the
measured quantities against the equations within loose tolerances —
they are regression anchors for the calibration, not exact equalities.
"""

import pytest

from repro.core.allreduce import plan_switch_allreduce
from repro.core.config import FlareConfig
from repro.core.models import evaluate_design


def _sim(size, algo, children=16, clusters=2, **kw):
    plan = plan_switch_allreduce(
        size, children=children, n_clusters=clusters, algorithm=algo, **kw
    )
    return plan.execute(jitter=0.0, seed=31, cold_start=False)


def test_tree_bandwidth_matches_model_within_30pct():
    """Tree is contention-free, so sim and model should track."""
    cfg = FlareConfig(children=16, subset_size=8, data_bytes="64KiB")
    model = evaluate_design(cfg, "tree")
    sim = _sim("64KiB", "tree")
    assert sim.bandwidth_tbps == pytest.approx(model.bandwidth_tbps, rel=0.3)


def test_single_large_matches_model_within_30pct():
    cfg = FlareConfig(children=16, subset_size=8, data_bytes="512KiB")
    model = evaluate_design(cfg, "single")
    sim = _sim("512KiB", "single")
    assert sim.bandwidth_tbps == pytest.approx(model.bandwidth_tbps, rel=0.3)


def test_contention_ordering_matches_eq2():
    """Simulated contention wait per packet must grow when delta_c
    shrinks below L, and vanish when staggering stretches past L."""
    small = _sim("8KiB", "single", children=32)     # delta_c << L
    large = _sim("512KiB", "single", children=32)   # delta_c ~ L
    per_pkt_small = small.contention_wait_cycles / (small.n_blocks * 32)
    per_pkt_large = large.contention_wait_cycles / (large.n_blocks * 32)
    assert per_pkt_small > 5 * max(per_pkt_large, 1e-9)


def test_tree_working_memory_tracks_model_M():
    """Peak live tree buffers per block ~ (P-1)/log2(P) on average;
    the peak over the run stays within a small factor of M * blocks in
    flight."""
    sim = _sim("16KiB", "tree", children=16)
    # 16 children -> M ~ 15/4 = 3.75 buffers of 1 KiB per block.
    # Peak working memory must be at least one block's worth and far
    # below the dense-all-packets bound (P per block).
    assert sim.peak_working_memory_bytes >= 4 * 1024
    assert sim.peak_working_memory_bytes < 16 * 1024 * sim.n_blocks


def test_bandwidth_never_exceeds_offered_load():
    """Goodput can't beat the injection rate (line-rate share)."""
    sim = _sim("64KiB", "tree")
    cfg = FlareConfig(
        children=16, n_clusters=2, data_bytes="64KiB", feed="line"
    )
    # Offered to the 2-cluster sim is (2/64) of line rate; the scaled
    # number can't exceed full line rate.
    line_tbps = cfg.n_ports * cfg.port_gbps / 1000.0
    assert sim.bandwidth_tbps <= line_tbps


def test_icache_fill_count_bounded_by_clusters():
    sim = plan_switch_allreduce(
        "16KiB", children=8, n_clusters=2, algorithm="tree"
    ).execute(cold_start=True, seed=32)
    assert 1 <= sim.icache_fills <= 2   # once per cluster at most
