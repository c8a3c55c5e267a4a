"""Degradation rows stay readable from the provenance DB.

Runs recorded today have no degradation events, but the schema-v3
``degradations`` table and the rows older databases hold must still
render.  These tests seed a row through :class:`ProvenanceStore` next
to two recorded runs and pin the read path: ``prov show`` lists it and
``prov diff`` flags the silent degradation.
"""

import pytest

from repro.comm import Fabric
from repro.provenance.cli import diff_runs, main
from repro.provenance.store import ProvenanceStore


def _recorded_run(db, label):
    fab = Fabric(n_hosts=16, hosts_per_leaf=8, n_spines=2,
                 provenance_db=db, run_label=label)
    fab.communicator(name="t0").allreduce("64KiB", algorithm="ring")
    run_id = fab.run_id
    fab.shutdown()
    return run_id


@pytest.fixture(scope="module")
def degraded_db(tmp_path_factory):
    db = str(tmp_path_factory.mktemp("prov") / "prov.db")
    clean_id = _recorded_run(db, "clean")
    degr_id = _recorded_run(db, "degraded")
    with ProvenanceStore(db) as store:
        assert store.degradations(degr_id) == []
        store.upsert_degradations(degr_id, [
            (0, 5000.0, "worker_crash", "worker 0 died", '{"worker": 0}'),
        ])
    return db, clean_id, degr_id


def test_prov_show_lists_degradations(degraded_db, capsys):
    db, _, degr_id = degraded_db
    assert main(["prov", "show", degr_id, "--db", db]) == 0
    out = capsys.readouterr().out
    assert "degradations:" in out
    assert "t=5,000ns worker_crash: worker 0 died" in out


def test_prov_diff_flags_silent_degradation(degraded_db, capsys):
    db, clean_id, degr_id = degraded_db
    with ProvenanceStore(db) as store:
        doc = diff_runs(store, clean_id, degr_id)
    assert doc["degradations"]["a"] == []
    assert [e["event"] for e in doc["degradations"]["b"]] == ["worker_crash"]
    assert doc["degradations"]["b"][0]["detail"] == {"worker": 0}
    assert any("silent degradation" in r for r in doc["regressions"])

    assert main(["prov", "diff", clean_id, degr_id, "--db", db]) == 0
    out = capsys.readouterr().out
    assert "silent degradation" in out
    assert "worker_crash" in out
