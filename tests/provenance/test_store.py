"""Sqlite provenance store: round-trips, prefixes, one schema version."""

import sqlite3

import pytest

from repro.provenance import SchemaVersionError
from repro.provenance.store import SCHEMA_VERSION, ProvenanceStore


def _run_row(run_id="run-abc123def456", **over):
    row = {
        "run_id": run_id,
        "created_utc": "2026-08-08T12:00:00Z",
        "git_sha": "0123456789abcdef",
        "git_dirty": False,
        "seed": 7,
        "arbitration": "wfq",
        "routing": "ecmp",
        "topology": "('fat-tree', ...)",
        "topology_family": "fat-tree",
        "n_hosts": 64,
        "algorithm": "ring",
        "makespan_ns": 12345.5,
        "label": "unit",
        "config_json": {"engine": {"routing": "ecmp"}},
    }
    row.update(over)
    return row


def test_full_run_round_trip(tmp_path):
    db = tmp_path / "prov.db"
    switch_rows = [("s0", "hpu_busy_cycles", 100.0), ("s0", "l1_peak_bytes", 64.0)]
    link_rows = [("h0", "l0", "bytes", 4096.0), ("h0", "l0", "busy_ns", 32.0)]
    energy = [("run", "total_j", 1.5), ("tenant:t0", "link_transfer_j", 0.25)]
    with ProvenanceStore(str(db)) as store:
        store.upsert_run(_run_row())
        store.upsert_switch_counters("run-abc123def456", switch_rows)
        store.upsert_link_counters("run-abc123def456", link_rows)
        store.upsert_energy("run-abc123def456", energy)
    with ProvenanceStore(str(db)) as store:
        assert store.schema_version == SCHEMA_VERSION
        run = store.run("run-abc123def456")
        assert run["seed"] == 7
        assert run["git_dirty"] is False
        assert run["makespan_ns"] == 12345.5
        assert run["config"]["engine"]["routing"] == "ecmp"
        assert store.switch_counters(run["run_id"]) == {
            "s0": {"hpu_busy_cycles": 100.0, "l1_peak_bytes": 64.0}
        }
        assert store.link_counters(run["run_id"]) == {
            ("h0", "l0"): {"bytes": 4096.0, "busy_ns": 32.0}
        }
        assert store.energy(run["run_id"]) == {
            "run": {"total_j": 1.5},
            "tenant:t0": {"link_transfer_j": 0.25},
        }


def test_upserts_are_idempotent(tmp_path):
    """Streaming tick-then-flush re-writes the same rows; no dupes."""
    with ProvenanceStore(str(tmp_path / "p.db")) as store:
        for value in (1.0, 2.0):
            store.upsert_run(_run_row(makespan_ns=value))
            store.upsert_switch_counters(
                "run-abc123def456", [("s0", "busy_cycles", value)]
            )
            store.upsert_link_counters(
                "run-abc123def456", [("a", "b", "bytes", value)]
            )
        assert len(store.runs()) == 1
        assert store.runs()[0]["makespan_ns"] == 2.0
        assert store.switch_counters("run-abc123def456") == {
            "s0": {"busy_cycles": 2.0}
        }
        assert store.link_counters("run-abc123def456") == {
            ("a", "b"): {"bytes": 2.0}
        }


def test_run_id_prefix_lookup(tmp_path):
    with ProvenanceStore(str(tmp_path / "p.db")) as store:
        store.upsert_run(_run_row("run-aaaa11112222"))
        store.upsert_run(_run_row("run-aaaa33334444"))
        store.upsert_run(_run_row("run-bbbb55556666"))
        assert store.run("run-bbbb")["run_id"] == "run-bbbb55556666"
        assert store.run("run-aaaa1")["run_id"] == "run-aaaa11112222"
        with pytest.raises(ValueError, match="ambiguous"):
            store.run("run-aaaa")
        assert store.run("run-zzzz") is None


def test_fresh_database_holds_exactly_the_v4_tables(tmp_path):
    with ProvenanceStore(str(tmp_path / "p.db")) as store:
        assert store.schema_version == SCHEMA_VERSION == 4
        tables = {
            row[0] for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        columns = {
            row[1] for row in store._conn.execute("PRAGMA table_info(runs)")
        }
    assert tables == {
        "meta", "runs", "switch_counters", "link_counters", "energy",
    }
    assert "workers" not in columns


_V3_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE runs (run_id TEXT PRIMARY KEY, created_utc TEXT,
    git_sha TEXT, git_dirty INTEGER, seed INTEGER, workers INTEGER,
    arbitration TEXT, routing TEXT, topology TEXT, topology_family TEXT,
    n_hosts INTEGER, algorithm TEXT, makespan_ns REAL, label TEXT,
    config_json TEXT);
CREATE TABLE switch_counters (run_id TEXT NOT NULL, switch TEXT NOT NULL,
    counter TEXT NOT NULL, value REAL NOT NULL,
    PRIMARY KEY (run_id, switch, counter));
CREATE TABLE link_counters (run_id TEXT NOT NULL, src TEXT NOT NULL,
    dst TEXT NOT NULL, counter TEXT NOT NULL, value REAL NOT NULL,
    PRIMARY KEY (run_id, src, dst, counter));
CREATE TABLE energy (run_id TEXT NOT NULL, scope TEXT NOT NULL,
    component TEXT NOT NULL, joules REAL NOT NULL,
    PRIMARY KEY (run_id, scope, component));
CREATE TABLE degradations (run_id TEXT NOT NULL, seq INTEGER NOT NULL,
    sim_time_ns REAL, event TEXT NOT NULL, reason TEXT, detail_json TEXT,
    PRIMARY KEY (run_id, seq));
INSERT INTO meta VALUES ('schema_version', '3');
INSERT INTO runs (run_id, workers, makespan_ns)
    VALUES ('run-old', 0, 1.0);
"""


def _assert_rejected_untouched(db, version):
    before = db.read_bytes()
    with pytest.raises(SchemaVersionError, match="new file") as err:
        ProvenanceStore(str(db))
    assert isinstance(err.value, ValueError)
    assert str(db) in str(err.value)
    assert f"schema version {version}" in str(err.value)
    assert db.read_bytes() == before
    assert sorted(p.name for p in db.parent.iterdir()) == [db.name]


def test_v3_database_is_rejected_untouched(tmp_path):
    """A schema-v3 file (``workers`` column, ``degradations`` table),
    written by hand as an older build left it: no migration runs."""
    db = tmp_path / "v3.db"
    conn = sqlite3.connect(str(db))
    conn.executescript(_V3_DDL)
    conn.commit()
    conn.close()
    _assert_rejected_untouched(db, 3)


def _stamped_database(db, version):
    conn = sqlite3.connect(str(db))
    conn.executescript(
        "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);"
        f"INSERT INTO meta VALUES ('schema_version', '{version}');"
    )
    conn.close()


@pytest.mark.parametrize("version", [1, 2])
def test_older_schema_versions_are_rejected(tmp_path, version):
    db = tmp_path / "old.db"
    _stamped_database(db, version)
    _assert_rejected_untouched(db, version)


def test_newer_schema_is_rejected(tmp_path):
    db = tmp_path / "future.db"
    _stamped_database(db, SCHEMA_VERSION + 1)
    _assert_rejected_untouched(db, SCHEMA_VERSION + 1)


def test_unstamped_database_is_rejected(tmp_path):
    db = tmp_path / "other.db"
    conn = sqlite3.connect(str(db))
    conn.executescript("CREATE TABLE t (x INTEGER);")
    conn.close()
    _assert_rejected_untouched(db, None)
