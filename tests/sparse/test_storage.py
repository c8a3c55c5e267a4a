"""Tests for hash and array block storage: conservation, spilling,
memory accounting."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.allreduce as allreduce_mod
from repro.comm import Communicator
from repro.sparse.array_storage import ArrayStorage
from repro.sparse.handlers import SparseHandlerConfig
from repro.sparse.hash_storage import HashStorage, drain_table


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


def test_hash_duplicate_indices_flush_the_whole_spill_buffer(monkeypatch):
    """A packet that repeats an index takes the sequential insert, which
    flushes the whole spill buffer (``_flush_spill``) each time it
    reaches ``spill_capacity``: the table plus every flush add up to
    numpy's per-index sums, and every spilled element left in a flush."""
    h = HashStorage(n_slots=1, dtype="float64", spill_capacity=3)
    full_flushes = []
    flush_spill = h._flush_spill

    def spy():
        full_flushes.append(flush_spill())
        return full_flushes[-1]

    monkeypatch.setattr(h, "_flush_spill", spy)
    packets = [np.array([0, 0, 1, 2, 3, 1, 2, 3]), np.array([0, 4, 4, 5, 0, 6, 6, 7])]
    events = []
    for k, idx in enumerate(packets):
        assert len(np.unique(idx)) < len(idx)
        events += h.insert(idx, np.arange(len(idx), dtype=np.float64) + 10 * k + 1)
    assert len(events) == 4 and all(a is b for a, b in zip(events, full_flushes))
    assert h.spill_events == events
    assert h.spilled_elements == sum(e.n_elements for e in events) == 12
    indices, values, residual = h.finalize()
    assert residual is None
    got = np.zeros(8)
    np.add.at(got, indices, values)
    for e in events:
        np.add.at(got, e.indices, e.values)
    expected = np.zeros(8)
    for k, idx in enumerate(packets):
        np.add.at(expected, idx, np.arange(len(idx), dtype=np.float64) + 10 * k + 1)
    np.testing.assert_array_equal(got, expected)


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


@pytest.mark.parametrize("factor", [0, -3, 0.0, float("nan"), float("inf"), -float("inf")])
def test_handler_config_rejects_bad_hash_slots_factor(factor):
    with pytest.raises(ValueError, match="hash_slots_factor"):
        SparseHandlerConfig(allreduce_id=1, n_children=8, hash_slots_factor=factor)
    SparseHandlerConfig(allreduce_id=1, n_children=8, hash_slots_factor=0.5)


def test_bad_hash_slots_factor_raises_before_any_switch_runs(monkeypatch):
    """Once a non-positive factor ran silently with a one-slot table."""
    def no_switch(*_args, **_kwargs):
        raise AssertionError("a switch was built for an invalid request")

    monkeypatch.setattr(allreduce_mod, "PsPINSwitch", no_switch)
    comm = Communicator(n_hosts=8)
    for factor in (0, -3):
        with pytest.raises(ValueError, match="hash_slots_factor"):
            comm.allreduce("16KiB", algorithm="flare_switch_sparse", sparse=True,
                           density=0.01, hash_slots_factor=factor)


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


def _drain_reference(keys, values, spill_indices, spill_values):
    """The table's entries by index, then each residual element added in
    spill order in the table's dtype (a new index takes its first
    element as is)."""
    out = {int(k): v for k, v in zip(keys, values) if k != -1}
    with np.errstate(over="ignore"):      # int32 adds wrap, as np.add.at's do
        for i, v in zip(spill_indices, spill_values):
            out[i] = out[i] + v if i in out else v
    items = sorted(out.items())
    return (
        np.array([k for k, _v in items], dtype=np.int32),
        np.array([v for _k, v in items], dtype=values.dtype),
    )


@settings(max_examples=60, deadline=None)
@given(
    table=st.lists(st.integers(0, 40), max_size=16, unique=True),
    spill=st.lists(st.integers(0, 12), max_size=60),
    dtype=st.sampled_from(["float32", "int32"]),
    seed=st.integers(0, 2**16),
)
@example(table=[3, 7], spill=[5, 5, 5, 5, 7, 9, 5], dtype="float32", seed=1)
def test_property_drain_merges_residual_in_spill_order(table, spill, dtype, seed):
    """Bitwise against the sequential merge: float32 values of mixed
    magnitudes (the add order shows in the last bits), ``-0.0`` among
    them, and indices spilled three or more times."""
    rng = np.random.default_rng(seed)

    def draw(n):
        if dtype == "int32":
            return rng.integers(-(2**31), 2**31, n).astype(np.int32)
        vals = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)).astype(np.float32)
        vals[rng.random(n) < 0.1] = np.float32(-0.0)
        return vals

    n_slots = 20
    keys = np.full(n_slots, -1, dtype=np.int64)
    keys[rng.permutation(n_slots)[: len(table)]] = table
    values = np.zeros(n_slots, dtype=dtype)
    values[keys != -1] = draw(len(table))
    spill_values = draw(len(spill))
    idx, vals, residual = drain_table(keys, values, spill, list(spill_values))
    want_idx, want_vals = _drain_reference(keys, values, spill, spill_values)
    assert idx.dtype == np.int32 and vals.dtype == values.dtype
    assert idx.tobytes() == want_idx.tobytes()
    assert vals.tobytes() == want_vals.tobytes()
    assert (residual is None) == (not spill)
    if spill:
        assert residual.indices.tolist() == spill
        assert residual.values.tobytes() == spill_values.tobytes()
