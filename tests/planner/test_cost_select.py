"""The ``auto_mode="cost"`` selector end to end through the public
Communicator/Fabric API: picks, knob tuning, cache-key stability, and
live congestion injection."""

from repro.comm import Communicator, Fabric, get_algorithm
from repro.comm.planner import FEATURES, cost_select, tune_knobs
from repro.comm.request import CollectiveRequest
from repro.utils.units import KIB, MIB

TORUS = {"dim_x": 2, "dim_y": 4, "hosts_per_switch": 2}


def _comm(**kwargs):
    return Communicator(
        n_hosts=16, topology="torus", topology_params=TORUS, **kwargs
    )


def test_cost_mode_picks_best_algorithm_per_size():
    """On a quiet 16-host torus the fitted model routes small messages
    to butterfly (latency-optimal host schedule) and large ones to the
    in-network tree (half the wire volume)."""
    comm = _comm(auto_mode="cost")
    small = comm.plan(nbytes="64KiB", algorithm="auto")
    large = comm.plan(nbytes="16MiB", algorithm="auto")
    assert small.algorithm == "butterfly"
    assert large.algorithm == "flare_dense"


def test_static_mode_is_unchanged_by_the_planner():
    """Default auto still walks the static priority ladder — the new
    low-priority algorithms and the cost model must not perturb it."""
    assert _comm().plan(nbytes="64KiB", algorithm="auto").algorithm == \
        _comm(auto_mode="static").plan(nbytes="64KiB", algorithm="auto").algorithm


def test_cost_mode_tunes_knobs_into_the_request():
    comm = _comm(auto_mode="cost")
    small = comm.plan(nbytes="64KiB", algorithm="auto")
    assert small.request.params["sub_chunk_bytes"] == 8 * KIB
    large = comm.plan(nbytes="16MiB", algorithm="auto")
    assert large.request.params["chunk_bytes"] == MIB


def test_explicit_knobs_survive_cost_mode():
    comm = _comm(auto_mode="cost")
    plan = comm.plan(nbytes="64KiB", algorithm="auto", sub_chunk_bytes=32768)
    assert plan.request.params["sub_chunk_bytes"] == 32768


def test_tune_knobs_quantizes_to_powers_of_two():
    for nbytes in (100 * KIB, 150 * KIB, 3 * MIB + 17):
        request = CollectiveRequest(nbytes=nbytes, n_hosts=16, params={})
        tune_knobs("butterfly", request)
        knob = request.params["sub_chunk_bytes"]
        assert knob & (knob - 1) == 0
        assert 4 * KIB <= knob <= 256 * KIB


def test_cost_mode_requests_hit_the_plan_cache():
    """Quantized congestion + pow2 knobs: identical requests under the
    same load regime must be cache hits, not replans."""
    comm = _comm(auto_mode="cost")
    for _ in range(3):
        comm.allreduce("64KiB", algorithm="auto")
    info = comm.cache_info()
    assert info.misses == 1 and info.hits == 2


def test_atomic_only_pool_falls_back_to_static_order():
    """When no candidate is fabric-issuable the selector must return
    the static pick unchanged instead of pricing apples vs oranges."""
    entry = get_algorithm("flare_switch")
    assert entry.name not in FEATURES
    request = CollectiveRequest(nbytes=4 * KIB, n_hosts=16, params={})
    assert cost_select(request, [entry]) is entry


def test_fabric_injects_live_congestion_level():
    """Fabric-attached cost-mode tenants price the co-resident load:
    the congestion param lands in the resolved request (and so in the
    plan-cache key) without the caller passing anything."""
    fabric = Fabric(topology="torus", topology_params=TORUS, n_hosts=16)
    t0 = fabric.communicator(name="t0", auto_mode="cost")
    t1 = fabric.communicator(name="t1", auto_mode="cost")
    plan = t0.plan(nbytes="64KiB", algorithm="auto")
    assert plan.request.params["congestion"] == 1   # one co-tenant
    # Same regime, second tenant: same key shape, still deterministic.
    assert t1.plan(nbytes="64KiB", algorithm="auto").request.params[
        "congestion"
    ] == 1


def test_congestion_shifts_the_pick_under_load():
    """The 64KiB torus point flips from butterfly (quiet) to the
    in-network tree once the fabric prices co-resident contention —
    the regression that made mixed picks lose to uniform flare_dense
    under 8-way sharing."""
    fabric = Fabric(topology="torus", topology_params=TORUS, n_hosts=16)
    comms = [
        fabric.communicator(name=f"t{i}", auto_mode="cost") for i in range(8)
    ]
    plan = comms[0].plan(nbytes="64KiB", algorithm="auto")
    assert plan.request.params["congestion"] == 4   # clamped at max level
    assert plan.algorithm == "flare_dense"


def test_explicit_congestion_param_wins():
    fabric = Fabric(topology="torus", topology_params=TORUS, n_hosts=16)
    t0 = fabric.communicator(name="t0", auto_mode="cost")
    fabric.communicator(name="t1")
    plan = t0.plan(nbytes="64KiB", algorithm="auto", congestion=0)
    assert plan.request.params["congestion"] == 0
    assert plan.algorithm == "butterfly"


def test_per_call_auto_mode_overrides_communicator_default():
    comm = _comm(auto_mode="static")
    plan = comm.plan(nbytes="64KiB", algorithm="auto", auto_mode="cost")
    assert plan.algorithm == "butterfly"


def test_cost_and_static_agree_when_model_says_so():
    """16MiB everywhere: both modes land on flare_dense, and the cost
    plan still executes correctly end to end."""
    comm = _comm(auto_mode="cost")
    result = comm.allreduce("1MiB", algorithm="auto")
    assert result.algorithm == "flare_dense"
    assert result.time_ns > 0
