"""Golden table of the host and tree collective schedules.

Every case runs one collective (or one overlap of four tenants) through
the public API and records what the simulation produced: ``time_ns``,
``traffic_bytes_hops``, ``max_link_bytes``, the reliability counters of
a lossy run, and a sha256 of the reduced output.  ``schedule_golden.json``
pins these bitwise, so a change to the schedule code that moves an
event, resizes a message or reorders a reduction fails here.  Every byte
counter the runs leave (each ``Link``'s, the global and per-flow
traffic) must be an ``int``: messages carry whole bytes.

The grid: ring, swing, butterfly, flare_dense (size-only, int32 and
fp32 payloads), flare_sparse and sparcml (size-only) on fat-tree,
dragonfly and torus at 8 and 16 hosts, each run standalone (a lone
``Communicator``, whose every call is issued into a fresh one-tenant
``Fabric``) and on one shared ``Fabric`` per group (the ``workers0``
groups, named for the engine they were first pinned on); flare_switch
(int32 and fp32 payloads, one chunk) on the shared fabrics only; plus a
``hosts=`` placement subset, a seeded lossy fault schedule, and
4-tenant WFQ overlaps on one fabric.  Both modes run every link under
WFQ arbitration.

Regenerate only when a change to the simulated results is intended::

    PYTHONPATH=src python tests/collectives/test_schedule_golden.py --write

Rows whose values did not change keep their recorded text.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("schedule_golden.json")

TOPOLOGIES = {
    "fat-tree-8": ("fat-tree", {"n_hosts": 8, "hosts_per_leaf": 4, "n_spines": 2}),
    "fat-tree-16": ("fat-tree", {"n_hosts": 16, "hosts_per_leaf": 4, "n_spines": 2}),
    "dragonfly-8": (
        "dragonfly", {"n_groups": 2, "routers_per_group": 2, "hosts_per_router": 2},
    ),
    "dragonfly-16": (
        "dragonfly", {"n_groups": 2, "routers_per_group": 4, "hosts_per_router": 2},
    ),
    "torus-8": ("torus", {"dim_x": 2, "dim_y": 2, "hosts_per_switch": 2}),
    "torus-16": ("torus", {"dim_x": 4, "dim_y": 2, "hosts_per_switch": 2}),
}
MODES = ("standalone", "workers0")
N_ELEMENTS = 16384                      # 64 KiB of 4-byte elements
DENSE = ("ring", "swing", "butterfly", "flare_dense")
#: Small chunks so every schedule pipelines several sub-chunks per step.
KNOBS = {
    "ring": {"sub_chunk_bytes": 4096},
    "swing": {"sub_chunk_bytes": 4096},
    "butterfly": {"sub_chunk_bytes": 4096},
    "flare_dense": {"chunk_bytes": 16384},
    "flare_sparse": {"n_chunks": 1},
    "sparcml": {"sub_chunk_bytes": 4096},
}
#: flare_switch on a fabric is a tree schedule priced by the PsPIN
#: switch; standalone it is the single-switch simulation (pinned in
#: tests/comm/test_topology_integration.py).
FABRIC_ONLY = {"flare_switch/int32", "flare_switch/float32"}
PLACED = ("h1", "h2", "h5", "h6", "h9", "h10", "h13", "h14")
LOSSY = {
    "seed": 3,
    "faults": [{"kind": "lossy", "link": "*", "at": 0,
                "loss_rate": 0.01, "duplicate_rate": 0.01}],
}
#: Tenants of the 4-tenant WFQ overlaps: (algorithm, weight, dtype).
OVERLAP = {
    "overlap": (
        ("ring", 4.0, "int32"),
        ("swing", 2.0, "float32"),
        ("butterfly", 1.0, None),
        ("butterfly", 1.0, "int32"),
    ),
    "overlap-tree": (
        ("ring", 4.0, "int32"),
        ("swing", 2.0, "float32"),
        ("butterfly", 1.0, None),
        ("flare_dense", 1.0, "int32"),
    ),
}


def payloads(n_hosts: int, dtype: str) -> np.ndarray:
    rng = np.random.default_rng([2021, n_hosts])
    if dtype == "int32":
        return rng.integers(-1000, 1000, size=(n_hosts, N_ELEMENTS)).astype(np.int32)
    return rng.standard_normal((n_hosts, N_ELEMENTS)).astype(np.float32)


def record(result) -> dict:
    extra = result.extra
    row = {
        "algorithm": result.algorithm,
        "time_ns": result.time_ns,
        "traffic_bytes_hops": result.traffic_bytes_hops,
        "max_link_bytes": extra.get("max_link_bytes"),
    }
    for key in ("drops", "duplicates", "retransmits"):
        if key in extra:
            row[key] = extra[key]
    if "output" in extra:
        out = np.ascontiguousarray(extra["output"])
        row["output"] = f"{out.dtype}{list(out.shape)}:" + hashlib.sha256(
            out.tobytes()
        ).hexdigest()
    return row


def cases(n_hosts: int):
    """``(case id, data, allreduce kwargs)`` in run order."""
    for algorithm in DENSE:
        kwargs = {"algorithm": algorithm, **KNOBS[algorithm]}
        yield f"{algorithm}/size", N_ELEMENTS * 4, kwargs
        for dtype in ("int32", "float32"):
            yield f"{algorithm}/{dtype}", payloads(n_hosts, dtype), kwargs
    sparse = {"algorithm": "flare_sparse", "sparse": True, "density": 0.01}
    yield "flare_sparse/size", N_ELEMENTS * 4, {**sparse, **KNOBS["flare_sparse"]}
    yield "flare_sparse/chunked", N_ELEMENTS * 4, {**sparse, "n_chunks": 8}
    yield "sparcml/size", N_ELEMENTS * 4, {
        **sparse, "algorithm": "sparcml", **KNOBS["sparcml"]
    }
    for dtype in ("int32", "float32"):
        yield f"flare_switch/{dtype}", payloads(n_hosts, dtype), {
            "algorithm": "flare_switch"
        }


def _communicator(topo: str, mode: str):
    """``(communicator, fabric or None)`` for one group's runs."""
    from repro.comm import Communicator, Fabric

    family, params = TOPOLOGIES[topo]
    if mode == "standalone":
        return Communicator(topology=family, topology_params=params), None
    fabric = Fabric(topology=family, topology_params=params)
    return fabric.communicator(name="t"), fabric


def run_group(group: str) -> dict:
    """Run one group of cases and return ``{case id: record}``."""
    topo, kind, mode = group.split("/")
    comm, fabric = _communicator(topo, mode)
    try:
        if kind in OVERLAP:
            return _run_overlap(fabric, OVERLAP[kind])
        if kind == "lossy":
            fabric.load_faults(LOSSY)
        extra = {"hosts": PLACED} if kind == "placed" else {}
        n_hosts = len(PLACED) if kind == "placed" else comm.n_hosts
        return {
            case: record(comm.allreduce(data, **kwargs, **extra))
            for case, data, kwargs in cases(n_hosts)
            if mode != "standalone" or case not in FABRIC_ONLY
        }
    finally:
        if fabric is not None:
            fabric.shutdown()


def _run_overlap(fabric, tenants) -> dict:
    from repro.comm import wait_all

    n_hosts = fabric.topology.n_hosts
    futures = []
    for i, (algorithm, weight, dtype) in enumerate(tenants):
        comm = fabric.communicator(name=f"tenant{i}", weight=weight)
        data = payloads(n_hosts, dtype) if dtype else N_ELEMENTS * 4
        futures.append(comm.iallreduce(data, algorithm=algorithm, **KNOBS[algorithm]))
    results = wait_all(futures)
    return {f"tenant{i}": record(r) for i, r in enumerate(results)}


def groups() -> list[str]:
    out = [f"{topo}/plain/{mode}" for topo in TOPOLOGIES for mode in MODES]
    out += [f"fat-tree-16/placed/{mode}" for mode in MODES]
    out += [f"fat-tree-16/lossy/{mode}" for mode in MODES[1:]]
    out += [
        f"{topo}/{kind}/{mode}"
        for topo in ("fat-tree-16", "torus-16")
        for kind in OVERLAP
        for mode in MODES[1:]
    ]
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def nets(monkeypatch) -> list:
    """Every ``NetworkSimulator`` built while the test runs."""
    from repro.network.simulator import NetworkSimulator

    made = []
    init = NetworkSimulator.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(NetworkSimulator, "__init__", spy)
    return made


def whole_byte_counters(net) -> bool:
    stats = [net._traffic, *net._flow_traffic.values()]
    values = [s.bytes_hops for s in stats]
    values += [v for s in stats for v in s.per_link.values()]
    values += [link.bytes_carried for link in net.topology.links()]
    return all(type(v) is int for v in values)


@pytest.mark.parametrize("group", groups())
def test_schedule_golden(golden, nets, group):
    got = run_group(group)
    want = golden[group]
    assert sorted(got) == sorted(want)
    for case in want:
        assert got[case] == want[case], f"{group} {case}"
    assert nets and all(whole_byte_counters(net) for net in nets)
    assert all(net.arbitration == "wfq" for net in nets)
    for row in got.values():
        assert type(row["traffic_bytes_hops"]) is int
        assert type(row["max_link_bytes"]) is int


def test_table_covers_every_group(golden):
    assert sorted(golden) == sorted(groups())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table = {}
    for group in groups():
        kept = old.get(group, {})
        table[group] = {
            case: kept[case] if kept.get(case) == row else row
            for case, row in run_group(group).items()
        }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} groups to {GOLDEN}")
