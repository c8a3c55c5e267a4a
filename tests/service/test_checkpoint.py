"""Crash-consistent service checkpoints: kill it, resume it, same SLOs.

The oracle is the uninterrupted run.  A "crash" here is a scheduled
event that raises mid-run (same effect on service state as a SIGKILL:
the in-memory engine is simply gone, only the checkpoint file
survives); the resumed run starts from a *fresh* fabric + service and
must reproduce the oracle's remaining SLO snapshots and final report.

Plan-cache counters are stripped before comparison: the resumed
process starts with a cold cache by design (a documented limitation,
not state the checkpoint pretends to carry).
"""

import json
import os

import pytest

from repro.comm.fabric import Fabric
from repro.service import FabricService, PoissonWorkload, TenantClass


class Boom(Exception):
    pass


def _fabric():
    return Fabric(n_hosts=16, hosts_per_leaf=8, n_spines=2,
                  routing="updown")


def _workload():
    return PoissonWorkload(
        [
            TenantClass("prod", weight=4.0, rate_per_s=3000.0,
                        nbytes=128 * 1024, n_hosts=8, iterations=4,
                        gap_ns=120_000.0),
            TenantClass("batch", weight=1.0, rate_per_s=1500.0,
                        nbytes=512 * 1024, iterations=3,
                        gap_ns=200_000.0),
        ],
        seed=11, duration_ns=2e6,
    )


def _service(ckpt, interval=50_000.0):
    return FabricService(
        _fabric(), _workload(), scheduler="pack", queue_policy="wfq",
        snapshot_interval_ns=interval, checkpoint_path=ckpt,
    )


def _strip(snap):
    s = {k: v for k, v in snap.items()
         if k not in ("plan_cache", "run_id", "provenance_db")}
    if "snapshots" in s:
        s["snapshots"] = [_strip(x) for x in s["snapshots"]]
    return s


def _crash(service, at):
    def die():
        raise Boom

    service.fabric.sim.schedule_at(at, die)
    with pytest.raises(Boom):
        service.run()


# ----------------------------------------------------------------------
# The acceptance bar: killed and resumed == never killed
# ----------------------------------------------------------------------
def test_kill_and_resume_reproduces_slo_tail(tmp_path):
    ckpt = str(tmp_path / "svc.ckpt")
    oracle = _service(str(tmp_path / "oracle.ckpt")).run()

    _crash(_service(ckpt), at=900_000.0)
    assert os.path.exists(ckpt)

    resumed_svc = _service(ckpt)
    resumed = resumed_svc.run(resume=True)

    assert _strip(resumed) == _strip(oracle)
    assert resumed["jobs"]["completed"] == resumed["jobs"]["arrived"] > 0
    # The resumed run only writes checkpoints for its own tail.
    assert resumed_svc.checkpoints_written >= 1


def test_checkpoint_restores_gap_timers_and_partial_jobs(tmp_path):
    """The mid-run checkpoint this crash leaves behind must carry live
    inter-iteration gap timers and partially-complete jobs — the state
    whose restore is easy to get wrong — and still resume bitwise."""
    ckpt = str(tmp_path / "svc.ckpt")
    oracle = _service(str(tmp_path / "oracle.ckpt")).run()

    _crash(_service(ckpt), at=900_000.0)
    state = json.load(open(ckpt))
    assert state["gap_timers"], "crash point must leave pending gaps"
    partial = [
        j for j in state["jobs"].values()
        if j["status"] == "running" and 0 < j["iterations_done"]
    ]
    assert partial, "crash point must leave partially-done jobs"

    resumed = _service(ckpt).run(resume=True)
    assert _strip(resumed) == _strip(oracle)


def test_quiescent_checkpoint_invariant(tmp_path):
    """At a quiescent tick nothing holds wire time, so every open job
    is accounted for by a gap timer or a queue entry."""
    ckpt = str(tmp_path / "svc.ckpt")
    _crash(_service(ckpt), at=900_000.0)
    state = json.load(open(ckpt))
    assert state["open_jobs"] == (
        len(state["gap_timers"]) + len(state["queue"]["entries"])
    )


def test_traffic_counters_survive_resume(tmp_path):
    """Link-level traffic accounting continues across the crash: the
    resumed run's final tables equal the uninterrupted run's, as ints."""
    ckpt = str(tmp_path / "svc.ckpt")
    oracle_svc = _service(str(tmp_path / "oracle.ckpt"))
    oracle_svc.run()
    oracle_tr = oracle_svc.fabric.net.traffic

    _crash(_service(ckpt), at=900_000.0)
    resumed_svc = _service(ckpt)
    resumed_svc.run(resume=True)
    tr = resumed_svc.fabric.net.traffic

    assert tr.bytes_hops == oracle_tr.bytes_hops
    assert tr.messages == oracle_tr.messages
    assert dict(tr.per_link) == dict(oracle_tr.per_link)
    assert type(tr.bytes_hops) is int
    assert all(type(v) is int for v in tr.per_link.values())


# ----------------------------------------------------------------------
# Edges of the contract
# ----------------------------------------------------------------------
def test_resume_with_missing_file_degrades_to_fresh_run(tmp_path):
    """The same command line works before and after a crash: no file
    yet means a fresh run, not an error."""
    ckpt = str(tmp_path / "never-written.ckpt")
    oracle = _service(str(tmp_path / "oracle.ckpt")).run()
    fresh = _service(ckpt).run(resume=True)
    assert _strip(fresh) == _strip(oracle)


def _faulted_service(ckpt):
    service = _service(ckpt)
    service.fabric.inject(link="*", at=0.0, kind="lossy", loss_rate=0.01,
                          seed=3)
    service.fabric.inject(switch="s0", at=300_000.0, duration_ns=300_000.0)
    return service


def test_resume_onto_armed_faults_is_refused(tmp_path):
    """A checkpoint carries no fault or link state: faults armed before
    its tick would fire behind the forwarded clock and loss rolls would
    restart, so resuming a faulted run raises instead of diverging.  A
    missing checkpoint still starts the faulted run fresh."""
    ckpt = str(tmp_path / "svc.ckpt")
    _crash(_faulted_service(ckpt), at=900_000.0)
    assert os.path.exists(ckpt)
    with pytest.raises(ValueError, match="no fault or link state"):
        _faulted_service(ckpt).run(resume=True)

    fresh = _faulted_service(str(tmp_path / "never-written.ckpt"))
    oracle = _faulted_service(str(tmp_path / "oracle.ckpt"))
    assert _strip(fresh.run(resume=True)) == _strip(oracle.run())


def test_resume_requires_checkpoint_path():
    svc = FabricService(_fabric(), _workload(), snapshot_interval_ns=1e5)
    with pytest.raises(ValueError, match="checkpoint_path"):
        svc.run(resume=True)


def test_checkpoint_requires_snapshot_interval(tmp_path):
    with pytest.raises(ValueError, match="snapshot_interval_ns"):
        FabricService(
            _fabric(), _workload(),
            checkpoint_path=str(tmp_path / "svc.ckpt"),
        )


def test_unsupported_schema_version_rejected(tmp_path):
    ckpt = tmp_path / "svc.ckpt"
    ckpt.write_text(json.dumps({"schema_version": 999}))
    svc = _service(str(ckpt))
    with pytest.raises(ValueError, match="schema_version"):
        svc.run(resume=True)
