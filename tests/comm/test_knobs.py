"""Request params: the wiring is read by one resolver, every algorithm
knob is declared by its planner, and nothing is silently ignored."""

import argparse
import inspect
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.comm.fabric as fabric_mod
from repro.__main__ import _build_cli_topology
from repro.comm import (
    WIRING_PARAMS,
    CapabilityError,
    Communicator,
    Fabric,
    UnknownAlgorithmError,
    UnknownKnobError,
    available_algorithms,
    get_algorithm,
)
from repro.comm.planner import tune_knobs
from repro.comm.registry import SELECTOR_PARAMS
from repro.comm.request import CollectiveRequest
from repro.core.allreduce import SwitchAllreducePlan
from repro.pspin.engine import Simulator

KIB = 1024


def _shape(name: str) -> dict:
    """Size-only request arguments ``name`` serves on 16 hosts."""
    sparse = not get_algorithm(name).caps.dense
    return dict(algorithm=name, sparse=sparse, density=0.1 if sparse else 1.0)


@pytest.fixture
def no_events(monkeypatch):
    """Fail the test if any simulation starts."""

    def ran(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(Simulator, "schedule_at", ran)
    monkeypatch.setattr(SwitchAllreducePlan, "execute", ran)


@pytest.mark.parametrize("name", available_algorithms())
def test_registered_algorithm_knobs(name):
    entry = get_algorithm(name)
    declared = {
        k: p.default
        for k, p in inspect.signature(entry.planner).parameters.items()
        if p.kind is p.KEYWORD_ONLY
    }
    assert not declared.keys() & WIRING_PARAMS

    # An undeclared knob is one typed error at plan time, naming the
    # algorithm and every knob it declares; nothing reaches the fabric.
    fabric = Fabric(n_hosts=16)
    comm = fabric.communicator(n_clusters=1)
    with pytest.raises(UnknownKnobError) as info:
        comm.iallreduce("64KiB", not_a_knob=1, **_shape(name))
    message = str(info.value)
    assert f"algorithm {name!r} takes no knob 'not_a_knob'" in message
    for knob, default in declared.items():
        assert f"{knob}={default!r}" in message
    assert fabric.sim.events_processed == 0
    assert fabric.timeline() == [] and fabric.in_flight == 0

    # The listing shows what the signature declares.
    listed = {a["name"]: a["knobs"] for a in Communicator.algorithms()}
    assert listed[name] == declared

    # Every knob the cost selector tunes is one the algorithm declares,
    # and the planner takes it.
    for size in (4 * KIB, 256 * KIB, 16 * 1024 * KIB):
        request = CollectiveRequest(nbytes=size, n_hosts=16)
        tune_knobs(name, request)
        assert request.params.keys() <= declared.keys()
    if request.params:
        Communicator(n_hosts=16).plan(nbytes="64KiB", **request.params, **_shape(name))


@pytest.mark.parametrize(
    "name, knobs, error, match",
    [
        ("ring", {"sub_chunk_byte": 4096}, UnknownKnobError,
         "'ring' takes no knob 'sub_chunk_byte'; its knobs: sub_chunk_bytes=131072"),
        ("ring", {"chunk_bytes": 0}, UnknownKnobError,
         "'ring' takes no knob 'chunk_bytes'; its knobs: sub_chunk_bytes=131072"),
        ("ring", {"dtype": "foo"}, ValueError, "dtype 'foo'"),
        ("flare_switch_sparse", {"scheduler": "nope"}, UnknownKnobError,
         "takes no knob 'scheduler'; its knobs: storage='hash'"),
        ("flare_switch_sparse", {"staggered": False}, UnknownKnobError,
         "takes no knob 'staggered'; its knobs: storage='hash'"),
        ("flare_switch_sparse", {"subset_size": 3}, UnknownKnobError,
         "takes no knob 'subset_size'; its knobs: storage='hash'"),
        # Execute-time knobs raise at the call, before the run starts.
        ("flare_switch_sparse", {"cold_start": True}, UnknownKnobError,
         "run takes no knob 'cold_start'; its knobs: seed=0, jitter=1.0, verify=True"),
        ("ring", {"jitter": 0.5}, UnknownKnobError,
         "'ring' run on a fabric takes no knob 'jitter'; its knobs: seed=0"),
        ("flare_dense", {"verify": False}, UnknownKnobError,
         "run on a fabric takes no knob 'verify'; its knobs: seed=0"),
    ],
)
def test_silently_ignored_knobs_now_raise(no_events, name, knobs, error, match):
    comm = Communicator(n_hosts=16, n_clusters=1)
    size = "4KiB" if name == "flare_switch_sparse" else "64KiB"
    with pytest.raises(error, match=match):
        comm.allreduce(size, **_shape(name), **knobs)


def test_run_knobs_bind_to_the_run():
    comm = Communicator(n_hosts=8, n_clusters=1)
    for knobs in ({"seed": 3}, {"jitter": 0.0, "cold_start": False, "verify": False}):
        assert comm.allreduce("4KiB", algorithm="flare_switch", **knobs).time_ns > 0
    # ``seed`` is every run's knob; network schedules leave it unused.
    assert (comm.allreduce("64KiB", algorithm="ring", seed=1).time_ns
            == comm.allreduce("64KiB", algorithm="ring", seed=2).time_ns)
    future = comm.iallreduce("64KiB", algorithm="flare_dense", seed=5)
    assert future.result().time_ns > 0


# ----------------------------------------------------------------------
# Random knobs fail typed, at plan time
# ----------------------------------------------------------------------
#: Knobs that take objects (a tree, a workload, a cost model, per-level
#: sizes), not numbers: a number there is a type error, not a range.
OBJECT_KNOBS = {"tree", "workload", "cost_model", "level_bytes"}
#: Names ``Communicator.plan`` itself consumes.
CALL_NAMES = {
    "nbytes", "data", "payloads", "op", "algorithm", "dtype", "reproducible",
    "sparse", "density", "n_hosts", "seed", "jitter", "cold_start", "verify",
}
DECLARED = sorted(
    {k for n in available_algorithms() for k in get_algorithm(n).knobs} - OBJECT_KNOBS
)
NAMES = st.one_of(
    st.sampled_from(DECLARED),
    st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
        lambda n: n not in WIRING_PARAMS | SELECTOR_PARAMS | CALL_NAMES | OBJECT_KNOBS
    ),
)
VALUES = st.one_of(
    st.sampled_from([0, -1, -5, 1, 3, 7, 64, 4096, 0.5, 2.5, True, False,
                     math.nan, math.inf, -math.inf]),
    st.integers(-4096, 1 << 20),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_FUZZ_COMM = Communicator(n_hosts=16, n_clusters=1)


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(available_algorithms() + ("auto", "no_such_algorithm")),
    knobs=st.dictionaries(NAMES, VALUES, max_size=3),
)
def test_random_knobs_fail_typed_at_plan_time(name, knobs):
    shape = _shape(name) if name in available_algorithms() else {"algorithm": name}
    try:
        _FUZZ_COMM.plan(nbytes="64KiB", **shape, **knobs)
    except (ValueError, CapabilityError, UnknownAlgorithmError):
        pass


# ----------------------------------------------------------------------
# Every wiring entry point builds the fingerprint it built before
# ----------------------------------------------------------------------
#: Recorded at baf4946, before the resolver existed: per entry point, the
#: topology fingerprint each fabric and plan is wired with, and the
#: plan-cache key of a ring request.
GOLDEN = json.loads((Path(__file__).with_name("wiring_fingerprints.json")).read_text())


def test_wiring_fingerprints_unchanged(monkeypatch):
    built = []
    init = fabric_mod.Fabric.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(repr(self.topology.fingerprint()))

    monkeypatch.setattr(fabric_mod.Fabric, "__init__", spy)

    def comm_entry(comm):
        request, _ = comm.make_request("64KiB", algorithm="ring")
        plan = comm.plan(request)
        key = repr((plan.algorithm,) + request.signature())
        comm.allreduce("64KiB", algorithm="ring")      # plan.execute's fabric
        execute_fp = built[-1]
        comm.iallreduce("64KiB", algorithm="ring").result()
        assert repr(comm._wiring.shape.fingerprint()) == execute_fp
        return {
            "n_hosts": comm.n_hosts,
            "plan_topology": repr(sorted(plan.setup["topology"].items())),
            "plan_key": key,
            "execute_fabric": execute_fp,
            "private_fabric": repr(comm.fabric.topology.fingerprint()),
        }

    def fabric_entry(fabric):
        request, _ = fabric.communicator().make_request("64KiB", algorithm="ring")
        return {
            "fabric": repr(fabric.topology.fingerprint()),
            "plan_key": repr(("ring",) + request.signature()),
        }

    torus = {"dim_x": 2, "dim_y": 2, "hosts_per_switch": 4}
    cli = argparse.Namespace(topology="fat-tree", topo_params=None, hosts=16)
    got = {
        "communicator-default": comm_entry(Communicator()),
        "communicator-hpl4-spines2": comm_entry(Communicator(hosts_per_leaf=4, n_spines=2)),
        "communicator-torus": comm_entry(Communicator(topology="torus", topology_params=torus)),
        "communicator-multi-rail": comm_entry(Communicator(
            n_hosts=32, topology="multi-rail", topology_params={"n_rails": 2})),
        "fabric-16": fabric_entry(Fabric(n_hosts=16)),
        "fabric-32-max2": fabric_entry(Fabric(n_hosts=32, max_allreduces_per_switch=2)),
        "cli-fat-tree-16": {"topology": repr(_build_cli_topology(cli).fingerprint())},
    }
    assert got == GOLDEN
