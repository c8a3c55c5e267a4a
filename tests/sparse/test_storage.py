"""Tests for hash and array block storage: conservation, spilling,
memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.array_storage import ArrayStorage
from repro.sparse.hash_storage import HashStorage


def _reconstruct(storage, extra_events=()):
    """Dense reconstruction from finalize() plus earlier spill flushes."""
    indices, values, _residual = storage.finalize()
    out = {}
    for i, v in zip(indices.tolist(), values.tolist()):
        out[i] = out.get(i, 0) + v
    for ev in extra_events:
        for i, v in zip(ev.indices.tolist(), ev.values.tolist()):
            out[i] = out.get(i, 0) + v
    return out


def test_hash_aggregates_same_index():
    h = HashStorage(n_slots=16, dtype="float32")
    h.insert(np.array([3, 5]), np.array([1.0, 2.0], dtype=np.float32))
    h.insert(np.array([3]), np.array([10.0], dtype=np.float32))
    idx, vals, residual = h.finalize()
    assert residual is None
    assert dict(zip(idx.tolist(), vals.tolist())) == {3: 11.0, 5: 2.0}


def test_hash_collision_spills_not_drops():
    """Force a collision (1 slot) and check nothing is lost."""
    h = HashStorage(n_slots=1, dtype="float32", spill_capacity=100)
    h.insert(np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0], dtype=np.float32))
    assert h.spilled_elements >= 1
    out = _reconstruct(h)
    assert out == {0: 4.0, 1: 2.0}


def test_hash_spill_buffer_flushes_when_full():
    h = HashStorage(n_slots=1, dtype="float32", spill_capacity=2)
    flushes = h.insert(
        np.array([0, 1, 2, 3, 4]),
        np.arange(5, dtype=np.float32) + 1,
    )
    assert len(flushes) >= 1
    assert all(f.n_elements == 2 for f in flushes)
    total = _reconstruct(h, flushes)
    assert total == {i: float(i + 1) for i in range(5)}


def test_hash_memory_constant_in_density():
    h = HashStorage(n_slots=512, dtype="float32")
    before = h.memory_bytes
    h.insert(np.arange(100), np.ones(100, dtype=np.float32))
    assert h.memory_bytes == before


def test_hash_rejects_bad_params():
    with pytest.raises(ValueError):
        HashStorage(n_slots=0)
    with pytest.raises(ValueError):
        HashStorage(n_slots=4, spill_capacity=0)


def test_array_exact_accumulation():
    a = ArrayStorage(span=16, dtype="float32")
    a.insert(np.array([1, 5]), np.array([2.0, 3.0], dtype=np.float32))
    a.insert(np.array([5, 9]), np.array([4.0, 1.0], dtype=np.float32))
    idx, vals, residual = a.finalize()
    assert residual is None
    assert dict(zip(idx.tolist(), vals.tolist())) == {1: 2.0, 5: 7.0, 9: 1.0}


def test_array_never_spills():
    a = ArrayStorage(span=8)
    events = a.insert(np.arange(8), np.ones(8, dtype=np.float32))
    assert events == []
    assert a.spilled_bytes == 0


def test_array_memory_proportional_to_span():
    assert ArrayStorage(span=2000).memory_bytes > ArrayStorage(span=100).memory_bytes
    with pytest.raises(ValueError):
        ArrayStorage(span=0)


def test_array_zero_values_dropped_at_flush():
    a = ArrayStorage(span=4, dtype="float32")
    a.insert(np.array([0, 1]), np.array([0.0, 5.0], dtype=np.float32))
    idx, vals, _ = a.finalize()
    np.testing.assert_array_equal(idx, [1])


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 63), st.integers(1, 9)), min_size=1, max_size=80
    ),
    n_slots=st.sampled_from([1, 4, 16, 64]),
)
def test_property_hash_conservation(data, n_slots):
    """Invariant: table + spill flushes + residual == all inserted data,
    element-for-element (no value ever lost or double counted)."""
    h = HashStorage(n_slots=n_slots, dtype="float64", spill_capacity=3)
    flushes = []
    expected = {}
    for idx, val in data:
        flushes += h.insert(np.array([idx]), np.array([float(val)]))
        expected[idx] = expected.get(idx, 0.0) + val
    got = _reconstruct(h, flushes)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 31), st.integers(1, 9)), min_size=1, max_size=60
    )
)
def test_property_array_matches_dense_sum(data):
    a = ArrayStorage(span=32, dtype="float64")
    dense = np.zeros(32)
    for idx, val in data:
        a.insert(np.array([idx]), np.array([float(val)]))
        dense[idx] += val
    idx, vals, _ = a.finalize()
    got = np.zeros(32)
    got[idx] = vals
    np.testing.assert_allclose(got, dense)
