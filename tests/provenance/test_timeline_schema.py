"""Timeline schema v3 (run identity): the one version the loader reads."""

import json

import pytest

from repro.comm import TIMELINE_SCHEMA_VERSION, Fabric, load_timeline


def test_schema_version_is_3():
    assert TIMELINE_SCHEMA_VERSION == 3


def _run_fabric(tmp_path, with_db):
    db = str(tmp_path / "t.db") if with_db else None
    fabric = Fabric(n_hosts=8, provenance_db=db)
    comm = fabric.communicator(name="t0")
    comm.iallreduce("64KiB", algorithm="ring").result()
    return fabric


def test_v3_envelope_carries_run_identity(tmp_path):
    fabric = _run_fabric(tmp_path, with_db=True)
    try:
        payload = json.loads(fabric.timeline_json())
        assert payload["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert payload["run_id"] == fabric.run_id
        assert payload["provenance_db"] == fabric.provenance.store.path
    finally:
        fabric.shutdown()


def test_v3_round_trip_through_loader(tmp_path):
    fabric = _run_fabric(tmp_path, with_db=False)
    try:
        path = str(tmp_path / "timeline.json")
        fabric.timeline_json(path)
        doc = load_timeline(path)
        assert doc["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert doc["run_id"] == fabric.run_id
        # No recorder attached: the loader normalizes the pointer.
        assert doc["provenance_db"] is None
        assert doc["events"]
    finally:
        fabric.shutdown()


@pytest.mark.parametrize("version", [1, 2, 4, None])
def test_unknown_versions_are_rejected(version):
    with pytest.raises(ValueError, match="unsupported timeline schema"):
        load_timeline(json.dumps({"schema_version": version}))
