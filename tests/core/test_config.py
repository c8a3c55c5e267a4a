"""Tests for FlareConfig validation and derived symbols."""

import pytest

from repro.core.config import FlareConfig
from repro.pspin.costs import CostModel


def test_size_strings_accepted():
    cfg = FlareConfig(data_bytes="64KiB", packet_bytes="1KiB")
    assert cfg.data_bytes == 65536
    assert cfg.packet_bytes == 1024


def test_blocks_round_up():
    cfg = FlareConfig(data_bytes=1500, packet_bytes=1024)
    assert cfg.blocks == 2


def test_subset_defaults_to_cluster_width():
    cfg = FlareConfig(cores_per_cluster=8)
    assert cfg.subset_size == 8


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        FlareConfig(data_bytes=0)
    with pytest.raises(ValueError):
        FlareConfig(children=0)
    with pytest.raises(ValueError):
        _ = FlareConfig(feed=-1.0).delta


@pytest.mark.parametrize("field", ["n_clusters", "cores_per_cluster"])
@pytest.mark.parametrize("value", [0, -2])
def test_switch_without_cores_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        FlareConfig(**{field: value})


def test_packet_smaller_than_an_element_rejected():
    with pytest.raises(ValueError, match="packet_bytes"):
        FlareConfig(packet_bytes=3, dtype_name="int32")
    assert FlareConfig(packet_bytes=1, dtype_name="int8").elements_per_packet == 1


@pytest.mark.parametrize(
    "kwargs",
    [{"n_clusters": 0}, {"n_clusters": -2}, {"packet_bytes": 3, "dtype": "int32"}],
)
def test_bad_switch_shapes_fail_at_plan_time(kwargs):
    """Each used to surface mid-run: a ZeroDivisionError in the arrival
    rate or the block count, or "delta must be positive" at execute."""
    from repro import Communicator
    from repro.core.allreduce import plan_switch_allreduce

    field = next(iter(kwargs))
    with pytest.raises(ValueError, match=field):
        plan_switch_allreduce("64KiB", children=8, **kwargs)
    if field == "n_clusters":
        comm = Communicator(n_hosts=8, **kwargs)
        with pytest.raises(ValueError, match=field):
            comm.allreduce("64KiB", algorithm="flare_switch")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_clusters": 0},
        {"n_clusters": -1},
        {"cores_per_cluster": 0},
        {"packet_bytes": 4},
        {"packet_bytes": 7},
    ],
)
def test_bad_sparse_switch_shapes_fail_at_plan_time(kwargs):
    """The sparse design gets the dense design's checks through the one
    plan.  Each used to fail mid-run with an unrelated message (a
    ZeroDivisionError, "delta must be positive", "subset_size must be
    >= 1"), or, for packets below one 8 B index+value element, to run
    with 1-element packets."""
    from repro import Communicator

    field = next(iter(kwargs))
    request = dict(algorithm="flare_switch_sparse", sparse=True, density=0.1, **kwargs)
    comm = Communicator(n_hosts=8)
    with pytest.raises(ValueError, match=field):
        comm.plan(nbytes="16KiB", **request)
    with pytest.raises(ValueError, match=field):
        comm.allreduce("16KiB", **request)


def test_dtype_and_elements():
    cfg = FlareConfig(dtype_name="int16", packet_bytes=1024)
    assert cfg.elements_per_packet == 512
    assert cfg.dtype.size_bytes == 2


def test_fp64_rejected_at_config_level():
    cfg = FlareConfig(dtype_name="float64")
    with pytest.raises(ValueError, match="float64"):
        _ = cfg.dtype


def test_custom_clock_scales_delta():
    cm = CostModel(clock_ghz=2.0)
    cfg = FlareConfig(cost_model=cm, feed="line")
    # Twice the clock -> same byte rate is fewer bytes *per cycle* ->
    # smaller interarrival in cycles? delta = bytes / (bytes/cycle):
    # bytes/cycle halves at 2 GHz for fixed Gbps, so delta doubles.
    base = FlareConfig(feed="line")
    assert cfg.delta == pytest.approx(2 * base.delta)


def test_barrier_sized_config():
    """0-byte-style tiny reductions still produce >= 1 block."""
    cfg = FlareConfig(data_bytes=1, packet_bytes=1024)
    assert cfg.blocks == 1
