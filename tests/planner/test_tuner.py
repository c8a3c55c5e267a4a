"""The online tuner: quantized congestion levels from (stubbed and
real) fabric telemetry."""

import pytest

from repro.comm import Fabric
from repro.comm.planner import OnlineTuner, congestion_level


class _StubNet:
    def __init__(self, peaks=None):
        self._peaks = dict(peaks or {})

    def queue_depth_peaks(self):
        return self._peaks


class _BrokenNet:
    def queue_depth_peaks(self):
        raise RuntimeError("queue telemetry unavailable")


class _StubFabric:
    def __init__(self, in_flight=0, tenants=1, peaks=None, net=None):
        self.in_flight = in_flight
        self._tenants = {f"t{i}": None for i in range(tenants)}
        self.net = net if net is not None else _StubNet(peaks)


def test_level_counts_in_flight_collectives():
    assert OnlineTuner(_StubFabric(in_flight=0)).level() == 0
    assert OnlineTuner(_StubFabric(in_flight=3)).level() == 3


def test_level_clamps_at_max_level():
    assert OnlineTuner(_StubFabric(in_flight=99)).level() == 4
    assert OnlineTuner(_StubFabric(in_flight=99), max_level=2).level() == 2


def test_co_tenants_floor_the_level():
    """Attached-but-idle co-tenants are expected load: the first
    arrival of a synchronized wave must not price an idle wire."""
    assert OnlineTuner(_StubFabric(in_flight=0, tenants=8)).level() == 4
    assert OnlineTuner(_StubFabric(in_flight=0, tenants=3)).level() == 2
    # Live in-flight wins when it exceeds the tenant prior.
    assert OnlineTuner(_StubFabric(in_flight=3, tenants=2)).level() == 3


def test_queue_depth_peak_adds_one_level():
    backed_up = _StubFabric(in_flight=1, peaks={("a", "b"): 9})
    assert OnlineTuner(backed_up).level() == 2
    shallow = _StubFabric(in_flight=1, peaks={("a", "b"): 8})
    assert OnlineTuner(shallow).level() == 1
    assert OnlineTuner(
        backed_up, queue_depth_threshold=20
    ).level() == 1


def test_telemetry_errors_propagate():
    """A failing telemetry read is an error, not an idle fabric."""
    with pytest.raises(RuntimeError, match="queue telemetry unavailable"):
        OnlineTuner(_StubFabric(in_flight=1, net=_BrokenNet())).level()


def test_congestion_level_none_is_zero():
    assert congestion_level(None) == 0


def test_real_fabric_telemetry_end_to_end():
    """Against a live fabric: level rises while a collective is in
    flight and falls back to the co-tenant floor once drained."""
    fabric = Fabric(n_hosts=8, hosts_per_leaf=4, n_spines=2)
    comm = fabric.communicator(name="t0")
    assert congestion_level(fabric) == 0
    future = comm.iallreduce("256KiB", algorithm="flare_dense")
    assert congestion_level(fabric) >= 1
    future.result()
    fabric.run()
    assert congestion_level(fabric) == 0
