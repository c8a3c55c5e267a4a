"""A per-call simulated switch is freed by refcount when its driver
returns: nothing it owns points back at it, so its egress payloads do
not wait for the cycle collector."""

import gc
import weakref

import pytest

import repro.core.allreduce as driver
from repro.pspin.switch import PsPINSwitch


@pytest.fixture
def switch_refs(monkeypatch):
    refs = []

    def tracked(cfg):
        switch = PsPINSwitch(cfg)
        refs.append(weakref.ref(switch))
        return switch

    monkeypatch.setattr(driver, "PsPINSwitch", tracked)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


@pytest.mark.parametrize("algorithm", ["single", "multi(4)", "tree"])
@pytest.mark.parametrize("fast_path", [True, False])
def test_dense_execute_frees_its_switch(
    monkeypatch, switch_refs, algorithm, fast_path
):
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fast_path else "0")
    plan = driver.plan_switch_allreduce(
        "8KiB", children=8, algorithm=algorithm, n_clusters=2
    )
    result = plan.execute(seed=0)
    assert result.fast_path_used is fast_path
    del result
    assert len(switch_refs) == 1
    assert switch_refs[0]() is None


@pytest.mark.parametrize("storage", ["hash", "array"])
def test_sparse_allreduce_frees_its_switch(switch_refs, storage):
    result = driver.plan_switch_allreduce(
        "4KiB", density=0.1, storage=storage, children=8, n_clusters=2
    ).execute()
    del result
    assert len(switch_refs) == 1
    assert switch_refs[0]() is None
