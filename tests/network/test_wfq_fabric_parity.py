"""WFQ fast paths vs the per-event loop on a shared fabric, bitwise.

Every ``Fabric`` arbitrates links by WFQ and routes by seeded ECMP, so
its hops take the memo from ``(node, dst)`` to the next link's queue and
the uncontended bypass.  ``REPRO_FASTPATH=0`` turns both off; the
per-event loop is the oracle.  Four tenants (weights 4:2:1:1) contend
with payload, size-only and sparse schedules; every result, the
timeline and the global per-link bytes must match.  A second phase
fails a memoized uplink with ``topology.fail_link`` between issues: the
memo must drop the stale queue, so no byte crosses the failed link.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import Fabric, wait_all
from repro.network.simulator import _LinkQueue

N_HOSTS = 16
WEIGHTS = (4.0, 2.0, 1.0, 1.0)
DENSITY = 0.002
SIZE = 64 * 1024


def _payload(seed: int) -> np.ndarray:
    rng = np.random.default_rng([38, seed])
    return rng.integers(-1000, 1000, size=(N_HOSTS, SIZE // 4)).astype(np.int32)


def _issue(comms, round_: int) -> list:
    """One collective per tenant, every kind once over two rounds."""
    ring, dense, butterfly, sparse = comms
    return [
        ring.iallreduce(_payload(round_), algorithm="ring"),
        dense.iallreduce(_payload(round_ + 10), algorithm="flare_dense"),
        butterfly.iallreduce(SIZE, algorithm="butterfly"),
        sparse.iallreduce(SIZE, algorithm=("flare_sparse", "sparcml")[round_ % 2],
                          sparse=True, density=DENSITY),
    ]


def _row(result) -> dict:
    row = {
        "algorithm": result.algorithm,
        "time_ns": result.time_ns,
        "traffic_bytes_hops": result.traffic_bytes_hops,
        "hot_links": result.extra["hot_links"],
    }
    if "output" in result.extra:
        out = result.extra["output"]
        row["output"] = (out.dtype.str, out.tobytes())
    return row


def _phase(fabric, comms, rounds) -> list:
    futures = [f for r in rounds for f in _issue(comms, r)]
    wait_all(futures)
    fabric.run()
    return [_row(f.result()) for f in futures]


def _uplink(fabric) -> tuple:
    """The leaf-to-spine link that carried the most bytes so far (ties
    by name): the same choice in both modes."""
    per_link = fabric.net.traffic.per_link
    ups = [k for k in per_link if k[0].startswith("l") and k[1].startswith("s")]
    return min(ups, key=lambda k: (-per_link[k], k))


def _run(monkeypatch, fast: bool) -> dict:
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fast else "0")
    fabric = Fabric(n_hosts=N_HOSTS)
    net = fabric.net
    assert net.arbitration == "wfq" and net.router.name == "ecmp"
    comms = [fabric.communicator(name=f"t{i}", weight=w) for i, w in enumerate(WEIGHTS)]
    out = {"first": _phase(fabric, comms, (0, 1))}
    memo = net._next_hop_cache
    up = _uplink(fabric)
    if fast:
        # The memo is live: it maps pairs to link queues, this one too.
        assert memo and all(type(q) is _LinkQueue for q in memo.values())
        assert up in {q.link.key for q in memo.values()}
    else:
        assert memo is None
    duplex = (up, up[::-1])
    carried = [net.traffic.per_link.get(k, 0) for k in duplex]
    fabric.topology.fail_link(*up)
    assert not net._next_hop_cache          # cleared (or never kept)
    out["second"] = _phase(fabric, comms, (2, 3))
    per_link = net.traffic.per_link
    # Nothing crossed the failed link, either way, after the failure.
    assert [per_link.get(k, 0) for k in duplex] == carried
    out["uplink"] = up
    out["timeline"] = fabric.timeline()
    out["per_link"] = list(per_link.items())
    out["bytes_hops"] = net.traffic.bytes_hops
    out["now"] = fabric.now
    return out


@pytest.fixture(scope="module")
def both():
    with pytest.MonkeyPatch.context() as monkeypatch:
        ref = _run(monkeypatch, fast=False)
        new = _run(monkeypatch, fast=True)
    return ref, new


def test_four_tenant_results_match_per_event_loop(both):
    ref, new = both
    assert new["first"] == ref["first"]
    assert {r["algorithm"] for r in ref["first"]} == {
        "ring", "flare_dense", "butterfly", "flare_sparse", "sparcml",
    }
    assert all("output" in r for r in ref["first"] if r["algorithm"] == "ring")


def test_timeline_and_per_link_bytes_match_per_event_loop(both):
    ref, new = both
    assert new["timeline"] == ref["timeline"]
    assert new["per_link"] == ref["per_link"]      # values and order
    assert (new["bytes_hops"], new["now"]) == (ref["bytes_hops"], ref["now"])


def test_failed_memoized_uplink_carries_nothing_in_both_modes(both):
    ref, new = both
    assert new["uplink"] == ref["uplink"]
    assert new["second"] == ref["second"]
    assert len(ref["second"]) == 8
