"""Cross-algorithm differential test harness.

One parametrized sweep drives *every registered algorithm* through the
public :class:`~repro.comm.Communicator` over three topology families
and two dtypes, replacing ad-hoc per-algorithm payload checks:

* algorithms that execute payloads (the host fallbacks, the PsPIN
  switch, and the explicitly-named network schedules) are checked **bitwise**
  against a numpy reference reduction — payload values are drawn from
  a small-integer range so the reference is exact in fp32 under any
  summation order, making "bitwise" meaningful for every backend;
* timing-only algorithms (the sparse size models) are checked for
  completion with positive makespan and wire traffic under the same
  grid, so capability gating and topology plumbing stay covered;
* every result reports ``traffic_bytes_hops`` and
  ``sent_bytes_per_host`` as ``int``.

The same harness is what the chaos suite re-runs under injected faults
(tests/harness/test_chaos_properties.py).
"""

import numpy as np
import pytest

from repro.comm import Communicator, available_algorithms, get_algorithm

#: Topology grid: family name -> constructor params wiring 8 hosts
#: (power of two, so the halving/doubling algorithms participate).
TOPOLOGIES = {
    "fat-tree": {"n_hosts": 8, "hosts_per_leaf": 4, "n_spines": 2},
    "dragonfly": {"n_groups": 2, "routers_per_group": 2, "hosts_per_router": 2},
    "torus": {"dim_x": 2, "dim_y": 2, "hosts_per_switch": 2},
}
N_HOSTS = 8
#: 1024 elements = 4 KiB fp32/int32 per host — divides into whole
#: switch packets (256 elements each), so flare_switch participates.
N_ELEMENTS = 1024


def make_payloads(dtype: str, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(per-host data, exact reference reduction) in ``dtype``.

    Values are small integers: their sum is exactly representable in
    fp32, so every summation order produces the identical bit pattern
    and the bitwise assertion is fair to all backends.
    """
    rng = np.random.default_rng(seed)
    data = rng.integers(-8, 8, size=(N_HOSTS, N_ELEMENTS)).astype(dtype)
    golden = data.astype(np.float64).sum(axis=0).astype(dtype)
    return data, golden


def output_of(result) -> np.ndarray:
    """The reduced vector, whichever shape the backend reports it in."""
    extra = result.extra
    if "output" in extra:
        return np.asarray(extra["output"]).ravel()
    outputs = extra["outputs"]          # flare_switch: block id -> array
    return np.concatenate([outputs[b] for b in sorted(outputs)])


def assert_whole_byte_fields(result) -> None:
    """Every algorithm reports its byte counts as ``int`` (one result
    shape, whole bytes on the wire)."""
    assert type(result.traffic_bytes_hops) is int
    assert type(result.sent_bytes_per_host) is int


def _communicator(topo_name: str) -> Communicator:
    return Communicator(
        n_hosts=N_HOSTS,
        topology=topo_name,
        topology_params=TOPOLOGIES[topo_name],
        n_clusters=1,
    )


@pytest.mark.parametrize("dtype", ["int32", "float32"])
@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
def test_differential_allreduce(algorithm, topo_name, dtype):
    entry = get_algorithm(algorithm)
    comm = _communicator(topo_name)
    sparse = entry.caps.sparse and not entry.caps.dense
    kwargs = {"sparse": True, "density": 0.1} if sparse else {}
    data, golden = make_payloads(dtype)

    request, _ = comm.make_request(
        data if not sparse else data[0].nbytes,
        algorithm=algorithm,
        dtype=dtype,
        **kwargs,
    )
    reason = entry.caps.rejects(request)
    if reason is not None:
        pytest.skip(f"{algorithm} on {topo_name}/{dtype}: {reason}")

    payload_reason = (
        entry.payload_rejects(request, data) if entry.payload_rejects else None
    )
    if sparse or payload_reason is not None:
        # Timing-only backend: assert it completes sanely on this grid.
        result = comm.allreduce(
            data[0].nbytes, algorithm=algorithm, dtype=dtype, **kwargs
        )
        assert result.time_ns > 0
        assert result.traffic_bytes_hops > 0
        assert result.n_hosts == N_HOSTS
        assert_whole_byte_fields(result)
        return

    result = comm.allreduce(data, algorithm=algorithm, dtype=dtype)
    assert_whole_byte_fields(result)
    out = output_of(result)
    assert out.dtype == golden.dtype
    np.testing.assert_array_equal(out, golden)
    assert result.algorithm == algorithm


@pytest.mark.parametrize("op", ["min", "max", "prod"])
@pytest.mark.parametrize("algorithm", ["ring", "flare_dense"])
def test_differential_other_operators(algorithm, op):
    """The payload-carrying network schedules honor every built-in
    operator with the exact numpy semantics."""
    rng = np.random.default_rng(3)
    base = rng.integers(1, 5, size=(N_HOSTS, 256)).astype(np.int32)
    ufunc = {"min": np.minimum, "max": np.maximum, "prod": np.multiply}[op]
    golden = ufunc.reduce(base, axis=0)
    comm = _communicator("fat-tree")
    result = comm.allreduce(base, op=op, algorithm=algorithm)
    np.testing.assert_array_equal(output_of(result), golden)


def test_differential_outputs_agree_across_hosts():
    """The network schedules assert internal all-host agreement; the
    harness cross-checks two independent executing backends against
    each other (differential in the literal sense)."""
    data, _ = make_payloads("float32", seed=9)
    comm = _communicator("fat-tree")
    results = {
        algo: output_of(comm.allreduce(data, algorithm=algo))
        for algo in ("ring", "flare_dense", "rabenseifner", "flare_switch",
                     "swing", "butterfly")
    }
    baseline = results.pop("ring")
    for algo, out in results.items():
        np.testing.assert_array_equal(baseline, out, err_msg=algo)
