"""The ``prov list|show|diff`` CLI against a freshly recorded database."""

import json
import sqlite3

import pytest

from repro.__main__ import main
from repro.comm import Fabric


def _record(db, size, label):
    fabric = Fabric(n_hosts=8, provenance_db=db, run_label=label)
    comm = fabric.communicator(name="t0")
    comm.iallreduce(size, algorithm="ring").result()
    run_id = fabric.run_id
    fabric.shutdown()
    return run_id


@pytest.fixture()
def two_run_db(tmp_path):
    db = str(tmp_path / "prov.db")
    small = _record(db, "256KiB", "baseline")
    big = _record(db, "1MiB", "candidate")
    return db, small, big


def test_list_shows_every_run(two_run_db, capsys):
    db, small, big = two_run_db
    assert main(["prov", "list", "--db", db]) == 0
    out = capsys.readouterr().out
    assert small in out and big in out
    assert "[baseline]" in out and "[candidate]" in out
    assert "energy=" in out


def test_show_accepts_unique_prefix(two_run_db, capsys):
    db, small, _ = two_run_db
    assert main(["prov", "show", small[:9], "--db", db]) == 0
    out = capsys.readouterr().out
    assert small in out
    assert "link counters:" in out
    assert "energy:" in out


def test_show_json_is_machine_readable(two_run_db, capsys):
    db, small, _ = two_run_db
    assert main(["prov", "show", small, "--db", db, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run"]["run_id"] == small
    assert doc["energy"]["run"]["total_j"] > 0
    assert doc["link_counters"]


def test_diff_defaults_to_latest_two_and_flags_regressions(
    two_run_db, capsys
):
    """4x the bytes: the diff must report the makespan and energy
    growth as regressions and surface per-link byte deltas."""
    db, small, big = two_run_db
    assert main(["prov", "diff", "--db", db]) == 0
    out = capsys.readouterr().out
    assert f"diff {small} (a) .. {big} (b)" in out
    assert "makespan_ns:" in out
    assert "REGRESSIONS:" in out
    assert "hottest links by byte delta:" in out


def test_diff_json_document(two_run_db, capsys):
    db, small, big = two_run_db
    assert main(["prov", "diff", small, big, "--db", db, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"]["run_id"] == small
    assert doc["b"]["run_id"] == big
    assert doc["makespan_ns"]["b"] > doc["makespan_ns"]["a"]
    assert doc["energy"]["total_j"]["b"] > doc["energy"]["total_j"]["a"]
    assert doc["hot_links"]
    assert any(r.startswith("total_j") for r in doc["regressions"])
    # Byte growth is workload, not regression — only flagged families.
    assert not any(r.startswith("bytes:") for r in doc["regressions"])


def test_unknown_run_id_exits_with_message(two_run_db, capsys):
    db, _, _ = two_run_db
    with pytest.raises(SystemExit, match="no run matching"):
        main(["prov", "show", "run-nope", "--db", db])


def test_diff_needs_two_runs(tmp_path):
    db = str(tmp_path / "single.db")
    _record(db, "64KiB", "only")
    with pytest.raises(SystemExit, match="need two recorded runs"):
        main(["prov", "diff", "--db", db])


def test_other_schema_version_exits_with_message(tmp_path):
    """An older build's database is refused by name, not migrated."""
    db = tmp_path / "v3.db"
    conn = sqlite3.connect(str(db))
    conn.executescript(
        "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);"
        "INSERT INTO meta VALUES ('schema_version', '3');"
    )
    conn.close()
    with pytest.raises(SystemExit, match="schema version 3.*new file"):
        main(["prov", "list", "--db", str(db)])
