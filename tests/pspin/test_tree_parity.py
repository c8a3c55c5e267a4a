"""Tree design (Sec. 6.3): packet-train fast path vs per-packet DES on
the shapes where the two are easiest to tell apart — odd subtrees that
promote (6 and 12 children) and same-instant ties (no jitter)."""

import numpy as np
import pytest

from repro.core.allreduce import plan_switch_allreduce


def run_both(size, children, dtype="int32", reproducible=False, seed=0,
             jitter=1.0, n_clusters=2, cold_start=True):
    results = []
    for env in ("1", "0"):
        plan = plan_switch_allreduce(
            size, children=children, algorithm="tree", dtype=dtype,
            n_clusters=n_clusters, reproducible=reproducible,
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_FASTPATH", env)
            results.append(
                plan.execute(seed=seed, jitter=jitter, cold_start=cold_start)
            )
    return results


def assert_identical(fast, slow):
    assert fast.fast_path_used is True
    assert slow.fast_path_used is False
    assert fast.makespan_cycles == slow.makespan_cycles
    # The whole provenance snapshot: tree runs accumulate every cycle
    # counter in the same order on both tiers, so it matches exactly.
    assert fast.provenance == slow.provenance
    assert fast.outputs.keys() == slow.outputs.keys()
    for block_id, payload in slow.outputs.items():
        assert fast.outputs[block_id].dtype == payload.dtype
        assert np.array_equal(fast.outputs[block_id], payload)


@pytest.mark.parametrize("children", [6, 12])
@pytest.mark.parametrize("jitter", [0.0, 1.0])
@pytest.mark.parametrize(
    "dtype,reproducible", [("int32", False), ("float32", True)]
)
def test_tree_parity_promotions_and_ties(children, jitter, dtype, reproducible):
    fast, slow = run_both(
        "16KiB", children, dtype=dtype, reproducible=reproducible, jitter=jitter
    )
    assert_identical(fast, slow)


def test_tree_parity_warm_start_without_jitter():
    fast, slow = run_both("8KiB", 12, jitter=0.0, cold_start=False)
    assert_identical(fast, slow)
    assert fast.icache_fills == 0


def test_des_does_not_double_book_a_core_on_root_extension():
    """The root's zero-length extension completes at the same instant a
    new fill may already have been dispatched onto its core; that
    completion must not clear the new fill's pending decision, or a
    second same-instant dispatch books the core twice."""
    fast, slow = run_both(262144, 8, seed=3, jitter=0.0)
    assert_identical(fast, slow)
