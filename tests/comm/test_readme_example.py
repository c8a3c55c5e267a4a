"""README's "Register your own" example, run as written: the planner
contract a user registers against."""

import re
from pathlib import Path

import pytest

from repro.comm import Communicator, Fabric, unregister_algorithm, wait_all

README = Path(__file__).resolve().parents[2] / "README.md"


@pytest.fixture
def star():
    text = README.read_text()
    section = text[text.index("Register your own:"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    yield namespace
    unregister_algorithm("star")


def test_readme_example_runs_standalone_and_on_a_shared_fabric(star):
    comm = Communicator(n_hosts=8)
    default = comm.plan(nbytes="64KiB", algorithm="star")
    rooted = comm.plan(nbytes="64KiB", algorithm="star", root=2)
    assert rooted.setup["root"] == default.schedule.hosts[2] != default.setup["root"]
    assert rooted.setup["topology"]["n_hosts"] == 8
    alone = comm.allreduce("64KiB", algorithm="star")
    assert alone.algorithm == "star" and alone.time_ns > 0
    # Seven leaves send 64 KiB up and get 64 KiB back, each over >= 2 links.
    assert alone.traffic_bytes_hops >= 2 * 7 * 2 * 65536

    fabric = Fabric(n_hosts=8)
    tenants = [fabric.communicator(name=n) for n in ("a", "b")]
    shared = wait_all([t.iallreduce("64KiB", algorithm="star") for t in tenants])
    assert [r.extra["tenant"] for r in shared] == ["a", "b"]
    assert all(r.time_ns > alone.time_ns for r in shared)    # they contend
    assert sum(r.traffic_bytes_hops for r in shared) == fabric.net.traffic.bytes_hops
    assert sum(r.traffic_bytes_hops for r in shared) == 2 * alone.traffic_bytes_hops
