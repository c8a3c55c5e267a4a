"""The host-based allreduce schedules against numpy references.

Each algorithm runs as a network schedule through the public
Communicator, carrying real payloads; the reduced vector must match a
numpy reduction of the inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.schedule import ExchangeTable
from repro.comm import Communicator


def _golden(arrays):
    return np.sum(np.stack(arrays), axis=0)


def _allreduce(arrays, algorithm):
    comm = Communicator(n_hosts=len(arrays))
    return comm.allreduce(np.stack(arrays), algorithm=algorithm).extra["output"]


@pytest.mark.parametrize("P", [2, 3, 4, 7, 8])
def test_ring_matches_dense_sum(P):
    rng = np.random.default_rng(P)
    arrays = [rng.integers(0, 100, size=23).astype(np.int64) for _ in range(P)]
    np.testing.assert_array_equal(_allreduce(arrays, "ring"), _golden(arrays))


@pytest.mark.parametrize("P", [2, 4, 8, 16])
def test_recursive_doubling_matches(P):
    rng = np.random.default_rng(P)
    arrays = [rng.standard_normal(31) for _ in range(P)]
    np.testing.assert_allclose(_allreduce(arrays, "recursive_doubling"), _golden(arrays))


@pytest.mark.parametrize("P", [2, 4, 8, 16])
def test_rabenseifner_matches(P):
    rng = np.random.default_rng(P + 100)
    arrays = [rng.standard_normal(40) for _ in range(P)]
    np.testing.assert_allclose(_allreduce(arrays, "rabenseifner"), _golden(arrays))


def test_power_of_two_required():
    hosts = ["h0", "h1", "h2"]
    with pytest.raises(ValueError, match="power-of-two"):
        ExchangeTable("recursive_doubling", hosts, 48.0)
    with pytest.raises(ValueError, match="power-of-two"):
        ExchangeTable("rabenseifner", hosts, 48.0)


def test_mismatched_lengths_rejected():
    plan = Communicator(n_hosts=2).plan(nbytes=32, algorithm="ring")
    with pytest.raises(ValueError, match="plan was sized"):
        plan.execute([np.ones(4), np.ones(5)])
    with pytest.raises(ValueError, match="0 payloads"):
        plan.execute([])


@settings(max_examples=20, deadline=None)
@given(
    P=st.sampled_from([2, 4, 8]),
    n=st.integers(1, 50),
    seed=st.integers(0, 1000),
)
def test_property_all_dense_algorithms_agree(P, n, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(-50, 50, size=n).astype(np.int64) for _ in range(P)]
    golden = _golden(arrays)
    for algorithm in ("ring", "recursive_doubling", "rabenseifner"):
        np.testing.assert_array_equal(_allreduce(arrays, algorithm), golden)
